package loadgen_test

import (
	"context"
	"testing"
	"time"

	"astra/internal/loadgen"
	"astra/internal/model"
	"astra/internal/optimizer"
	"astra/internal/qos"
	"astra/internal/server"
	"astra/internal/telemetry"
)

// TestRemoteDriver is the client-mode integration gate: the driver
// replays its mix against a live astra-server, absorbs 429s from a tight
// quota, splits latency via the server's timing headers, and observes
// the server-side response cache through X-Astra-Cache.
func TestRemoteDriver(t *testing.T) {
	tel := telemetry.New()
	svc := server.NewService(server.ServiceConfig{
		Templates: optimizer.NewTemplateCache(0),
		Cache:     model.NewPredictionCache(),
		Tel:       tel,
		Ledger:    qos.NewLedger(),
	})
	srv := server.New(server.Config{
		Service:   svc,
		Telemetry: tel,
		// A quota tight enough that the retry loop must absorb some 429s,
		// but generous enough that the run still finishes promptly.
		Quota: server.TenantQuota{Rate: 200, Burst: 5, MaxInFlight: 4, MaxQueue: 16},
	})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	const concurrency = 4
	clientTel := telemetry.New()
	res, err := loadgen.Run(context.Background(), loadgen.Spec{
		Shapes: []loadgen.Shape{
			loadgen.DefaultMix()[0], // wordcount-1gb
			loadgen.DefaultMix()[1], // wordcount-10gb
		},
		Concurrency: concurrency,
		Tenants:     2,
		MaxPlans:    40,
		Seed:        7,
		Tel:         clientTel,
		TargetURL:   srv.URL(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TransportErrors != 0 {
		t.Fatalf("transport errors = %d, want 0", res.TransportErrors)
	}
	if res.Plans != 40 {
		t.Fatalf("plans = %d (%d errors), want 40", res.Plans, res.Errors)
	}
	// Two distinct fingerprints: each misses at least once and at most
	// once per worker that can be in flight on it while it is cold — the
	// response cache coalesces those, so a worker that waited for another's
	// plan reports a miss too, but the planner ran once per fingerprint.
	if res.RespCacheHits+res.RespCacheMisses != 40 {
		t.Fatalf("respcache hits+misses = %d+%d, want 40 verdicts", res.RespCacheHits, res.RespCacheMisses)
	}
	if res.RespCacheMisses < 2 || res.RespCacheMisses > 2*concurrency {
		t.Fatalf("respcache misses = %d, want 2..%d", res.RespCacheMisses, 2*concurrency)
	}
	if got := tel.Counter(telemetry.MPlanSolves).Value(); got != 2 {
		t.Fatalf("planner solves = %d, want one per distinct fingerprint (2)", got)
	}
	if res.ServiceP50 < 0 || res.QueueP50 < 0 {
		t.Fatalf("negative timing: queue %v service %v", res.QueueP50, res.ServiceP50)
	}
	// The client published its view onto its own registry.
	if clientTel.Gauge(telemetry.MLoadgenServiceTime).Value() < 0 {
		t.Fatal("service-time gauge unpublished")
	}
	if got := res.PerShape["wordcount-1gb"] + res.PerShape["wordcount-10gb"]; got != 40 {
		t.Fatalf("per-shape accounting = %v", res.PerShape)
	}
	// Server-side accounting agrees with the client's view.
	if st := srv.RespCache().Stats(); st.Hits != int64(res.RespCacheHits) || st.Misses != int64(res.RespCacheMisses) {
		t.Fatalf("server respcache stats = %+v, client saw %d/%d", st, res.RespCacheHits, res.RespCacheMisses)
	}
}

// TestLocalRunSplitsTiming: in-process runs report the queue/service
// split too (no queue locally, so service equals total latency).
func TestLocalRunSplitsTiming(t *testing.T) {
	res, err := loadgen.Run(context.Background(), loadgen.Spec{
		Shapes:      loadgen.DefaultMix()[:1],
		Concurrency: 2,
		MaxPlans:    8,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QueueP95 != 0 {
		t.Fatalf("local queue wait = %v, want 0", res.QueueP95)
	}
	if res.ServiceP50 != res.P50 || res.ServiceP99 != res.P99 {
		t.Fatalf("local service quantiles %v/%v diverge from totals %v/%v",
			res.ServiceP50, res.ServiceP99, res.P50, res.P99)
	}
}
