package obs_test

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"astra/internal/flight"
	"astra/internal/obs"
	"astra/internal/optimizer"
	"astra/internal/telemetry"
)

// get fetches url and returns status and body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s read: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

// startServer starts a server on a free port and registers shutdown.
func startServer(t *testing.T, o obs.Options) *obs.Server {
	t.Helper()
	s := obs.NewServer(o)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// Concurrent requests can leave the client a dialed-but-never-used
		// connection, which http.Server.Shutdown waits 5 s on; drop it.
		http.DefaultClient.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func TestEndpointsSmoke(t *testing.T) {
	s := startServer(t, obs.Options{})

	if code, body := get(t, s.URL()+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	if code, _ := get(t, s.URL()+"/events"); code != http.StatusNotFound {
		t.Fatalf("/events without recorder: code %d, want 404", code)
	}
	if code, _ := get(t, s.URL()+"/explain"); code != http.StatusNotFound {
		t.Fatalf("/explain before publish: code %d, want 404", code)
	}
	s.PublishExplain("chosen plan: because\n")
	if code, body := get(t, s.URL()+"/explain"); code != 200 || body != "chosen plan: because\n" {
		t.Fatalf("/explain: %d %q", code, body)
	}
	if code, _ := get(t, s.URL()+"/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: code %d", code)
	}

	// /metrics renders the per-endpoint request counters the earlier GETs
	// incremented, proving labeled series survive the exposition round trip.
	code, body := get(t, s.URL()+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics: code %d", code)
	}
	want := telemetry.MObsHTTPRequests + `{path="/healthz"} 1`
	if !strings.Contains(body, want) {
		t.Fatalf("/metrics missing %q in:\n%s", want, body)
	}
	if n := strings.Count(body, "# TYPE "+telemetry.MObsHTTPRequests+" "); n != 1 {
		t.Fatalf("want exactly one TYPE line for %s, got %d", telemetry.MObsHTTPRequests, n)
	}
}

func TestEventsReplayAndGapAccounting(t *testing.T) {
	rec := flight.NewWithCapacity(4)
	reg := telemetry.New()
	for i := 1; i <= 10; i++ {
		rec.Emit(flight.Event{Kind: "test", Name: fmt.Sprintf("e%d", i)})
	}
	s := startServer(t, obs.Options{Telemetry: reg, Flight: rec})

	// A client resuming from seq 2 finds events 3..6 overwritten: the
	// handler reports the gap as a comment and counts the drops.
	code, body := get(t, s.URL()+"/events?follow=0&since=2")
	if code != 200 {
		t.Fatalf("/events: code %d", code)
	}
	if !strings.Contains(body, ": gap 4 event(s) overwritten") {
		t.Fatalf("missing gap comment in:\n%s", body)
	}
	for seq := 7; seq <= 10; seq++ {
		if !strings.Contains(body, fmt.Sprintf("id: %d\n", seq)) {
			t.Fatalf("missing frame id %d in:\n%s", seq, body)
		}
	}
	if strings.Contains(body, "id: 6\n") {
		t.Fatalf("overwritten event 6 should not be replayed:\n%s", body)
	}
	if got := reg.Counter(telemetry.MObsSSEDropped).Value(); got != 4 {
		t.Fatalf("dropped counter = %d, want 4", got)
	}

	// A fresh client (since=0) just starts at the retained tail, no gap.
	_, body = get(t, s.URL()+"/events?follow=0")
	if strings.Contains(body, ": gap") {
		t.Fatalf("fresh client should not see a gap:\n%s", body)
	}
}

func TestFrontierReplayAndBoundedHistory(t *testing.T) {
	reg := telemetry.New()
	s := startServer(t, obs.Options{Telemetry: reg, FrontierHistory: 2})

	observe := s.FrontierObserver()
	for i := 1; i <= 5; i++ {
		observe(optimizer.FrontierUpdate{Phase: i, Final: i == 5})
	}
	code, body := get(t, s.URL()+"/frontier?follow=0")
	if code != 200 {
		t.Fatalf("/frontier: code %d", code)
	}
	if !strings.Contains(body, ": gap 3 update(s) dropped") {
		t.Fatalf("missing drop comment in:\n%s", body)
	}
	if !strings.Contains(body, `"phase":4`) || !strings.Contains(body, `"phase":5`) {
		t.Fatalf("retained updates missing in:\n%s", body)
	}
	if strings.Contains(body, `"phase":3`) {
		t.Fatalf("evicted update replayed:\n%s", body)
	}
	if !strings.Contains(body, `"final":true`) {
		t.Fatalf("final update missing in:\n%s", body)
	}
	if got := reg.Counter(telemetry.MObsSSEDropped).Value(); got != 3 {
		t.Fatalf("dropped counter = %d, want 3", got)
	}
}

// TestShutdownReleasesSSEClients is the graceful-shutdown and
// goroutine-leak gate: live follow-mode SSE clients on both streams must
// be released by Shutdown, and the whole plane — HTTP server, sampler,
// handlers — must leave no goroutines behind.
func TestShutdownReleasesSSEClients(t *testing.T) {
	// Retire keep-alive connections from earlier tests so the baseline
	// only counts goroutines this test is responsible for.
	http.DefaultClient.CloseIdleConnections()
	before := runtime.NumGoroutine()

	rec := flight.New()
	rec.Emit(flight.Event{Kind: "test", Name: "e1"})
	s := obs.NewServer(obs.Options{
		Flight:         rec,
		RuntimeMetrics: true,
		SampleEvery:    time.Millisecond,
		PollEvery:      time.Millisecond,
	})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	// Two live tail clients; each confirms it received the first frame,
	// then blocks reading until the server ends the stream.
	released := make(chan error, 2)
	for _, path := range []string{"/events", "/frontier"} {
		go func(path string) {
			resp, err := http.Get(s.URL() + path)
			if err != nil {
				released <- err
				return
			}
			defer resp.Body.Close()
			_, err = io.Copy(io.Discard, resp.Body)
			released <- err
		}(path)
	}
	// Wait until both clients are connected (gauge reaches 2).
	deadline := time.Now().Add(5 * time.Second)
	for s.Registry().Gauge(telemetry.MObsSSEClients).Value() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.Registry().Gauge(telemetry.MObsSSEClients).Value(); got < 2 {
		t.Fatalf("sse client gauge = %d, want 2", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-released:
			if err != nil {
				t.Fatalf("sse client ended with error: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("sse client still connected after Shutdown")
		}
	}
	if got := s.Registry().Gauge(telemetry.MObsSSEClients).Value(); got != 0 {
		t.Fatalf("sse client gauge = %d after shutdown, want 0", got)
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}

	// Same leak-check pattern as TestPlanContextCancelPrompt: give the
	// runtime a moment to retire the handler and sampler goroutines.
	http.DefaultClient.CloseIdleConnections()
	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after shutdown", before, after)
	}
}

// TestFrontierFollowSeesLiveUpdates checks a follow-mode client receives
// updates appended after it connected, and is closed by the final one
// once the log is closed by Shutdown.
func TestFrontierFollowSeesLiveUpdates(t *testing.T) {
	s := startServer(t, obs.Options{PollEvery: time.Millisecond})
	observe := s.FrontierObserver()
	observe(optimizer.FrontierUpdate{Phase: 1})

	resp, err := http.Get(s.URL() + "/frontier")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	readFrame := func() string {
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "data: ") {
				return strings.TrimPrefix(line, "data: ")
			}
		}
		return ""
	}
	if d := readFrame(); !strings.Contains(d, `"phase":1`) {
		t.Fatalf("first frame = %q", d)
	}
	observe(optimizer.FrontierUpdate{Phase: 2})
	if d := readFrame(); !strings.Contains(d, `"phase":2`) {
		t.Fatalf("live frame = %q", d)
	}
}
