package obs_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"astra"
	"astra/internal/obs"
	"astra/internal/telemetry"
)

// TestScrapeUnderLoadMatchesFinalSnapshot is the race hammer: while a
// plan and a run execute, concurrent clients pound /metrics and tail
// /events. Run under -race this flushes out unsynchronized access across
// the registry, the recorder and the SSE handlers; afterwards the last
// scrape must equal the registry's own snapshot rendering, proving the
// scrape path is just a view, not a second bookkeeping.
func TestScrapeUnderLoadMatchesFinalSnapshot(t *testing.T) {
	tel := astra.NewTelemetry()
	rec := astra.NewFlightRecorder()
	s := startServer(t, obs.Options{Telemetry: tel, Flight: rec, PollEvery: time.Millisecond})

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				resp, err := http.Get(s.URL() + "/metrics")
				if err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.URL()+"/events", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body) // until ctx cancels the request
	}()

	job := astra.WordCount1GB()
	plan, err := astra.Plan(job, astra.MinTime(1e9),
		astra.WithTelemetry(tel), astra.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	s.PublishExplain(plan.Explain())
	if _, err := astra.Run(job, plan.Config,
		astra.WithRunTelemetry(tel), astra.WithFlightRecorder(rec)); err != nil {
		t.Fatal(err)
	}

	cancel()
	wg.Wait()
	http.DefaultClient.CloseIdleConnections()
	// The events handler decrements the client gauge on its way out; wait
	// for it so the final scrape sees a quiesced registry.
	deadline := time.Now().Add(5 * time.Second)
	for tel.Snapshot().Gauges[telemetry.MObsSSEClients] != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// Quiesced: one more scrape, then render the registry directly. The
	// scrape's own request-count increment lands before rendering, so the
	// two texts must be byte-equal.
	_, scraped := get(t, s.URL()+"/metrics")
	var direct bytes.Buffer
	if err := tel.Snapshot().WritePrometheus(&direct); err != nil {
		t.Fatal(err)
	}
	if scraped != direct.String() {
		t.Fatalf("final scrape diverges from registry snapshot:\n--- scrape ---\n%s\n--- snapshot ---\n%s",
			scraped, direct.String())
	}
}

// TestEventStreamByteIdenticalAcrossRuns re-runs the same seeded job
// twice, each with a fresh recorder and server, and requires the full
// /events replay to be byte-identical: virtual-time events plus a
// deterministic wire format mean the stream itself is reproducible.
func TestEventStreamByteIdenticalAcrossRuns(t *testing.T) {
	job := astra.WordCount1GB()
	cfg := astra.Baselines(job)[0]

	stream := func() string {
		rec := astra.NewFlightRecorder()
		s := startServer(t, obs.Options{Flight: rec})
		if _, err := astra.Run(job, cfg, astra.WithFlightRecorder(rec)); err != nil {
			t.Fatal(err)
		}
		_, body := get(t, s.URL()+"/events?follow=0")
		return body
	}
	first := stream()
	second := stream()
	if first != second {
		t.Fatalf("event streams differ across identical seeded runs:\nlen %d vs %d",
			len(first), len(second))
	}
	if len(first) == 0 {
		t.Fatal("event stream empty")
	}
}

// TestCPUProfileCarriesPhaseLabels drives planning work while the
// server's own pprof endpoint captures a short CPU profile, then checks
// the profile's string table for the phase label vocabulary. The profile
// is gzipped protobuf; with no pprof parser dependency, scanning the
// decompressed bytes for the label strings is sufficient — label keys
// and values live in the string table verbatim. Each plan gets a fresh
// template cache: on a hot template the default solver answers a repeated
// objective from the template's certified optima, without entering the
// labeled csp search.
func TestCPUProfileCarriesPhaseLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling window too slow for -short")
	}
	s := startServer(t, obs.Options{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		job := astra.Sort100GB()
		for ctx.Err() == nil {
			_, _ = astra.PlanContext(ctx, job, astra.MinCost(1e6*time.Hour), astra.WithParallelism(2),
				astra.WithTemplateCache(astra.NewTemplateCache(0)))
		}
	}()

	for attempt := 0; attempt < 3; attempt++ {
		resp, err := http.Get(s.URL() + "/debug/pprof/profile?seconds=1")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("profile fetch: code %d err %v", resp.StatusCode, err)
		}
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("profile not gzipped: %v", err)
		}
		prof, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("decompress profile: %v", err)
		}
		if bytes.Contains(prof, []byte("phase")) &&
			(bytes.Contains(prof, []byte("csp")) || bytes.Contains(prof, []byte("algorithm1")) || bytes.Contains(prof, []byte("dijkstra"))) {
			return
		}
	}
	t.Fatal("no CPU sample carried the planner phase label after 3 windows")
}
