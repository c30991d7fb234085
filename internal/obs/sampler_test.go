package obs_test

import (
	"runtime"
	"testing"
	"time"

	"astra/internal/obs"
	"astra/internal/telemetry"
)

func TestSamplerPublishesRuntimeHealth(t *testing.T) {
	reg := telemetry.New()
	s := obs.NewSampler(reg) // never started; sample by hand
	s.SampleOnce()

	if g := reg.Gauge(telemetry.MGoGoroutines).Value(); g <= 0 {
		t.Fatalf("goroutine gauge = %d, want > 0", g)
	}
	if g := reg.Gauge(telemetry.MGoMemTotalBytes).Value(); g <= 0 {
		t.Fatalf("total memory gauge = %d, want > 0", g)
	}
	if c := reg.Counter(telemetry.MGoSamples).Value(); c != 1 {
		t.Fatalf("samples counter = %d, want 1", c)
	}

	// Force GC activity, resample, and check the pause histogram only
	// grows (per-bucket deltas must never observe negative counts).
	runtime.GC()
	s.SampleOnce()
	snap := reg.Snapshot()
	if h, ok := snap.Histograms[telemetry.MGoGCPauseSeconds]; ok && h.Count < 0 {
		t.Fatalf("gc pause count = %d", h.Count)
	}
	if c := reg.Counter(telemetry.MGoSamples).Value(); c != 2 {
		t.Fatalf("samples counter = %d, want 2", c)
	}
}

func TestSamplerStopIdempotentAndWithoutStart(t *testing.T) {
	reg := telemetry.New()

	// Stop without Start must not hang.
	s := obs.NewSampler(reg)
	s.Stop()
	s.Stop()

	// Start samples at once and then on every tick (250ms); Stop joins
	// the goroutine.
	s = obs.NewSampler(reg)
	s.Start()
	samples := reg.Counter(telemetry.MGoSamples)
	for deadline := time.Now().Add(5 * time.Second); samples.Value() < 2 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	s.Stop()
	s.Stop()
	if c := samples.Value(); c < 2 {
		t.Fatalf("samples counter = %d after a tick, want >= 2", c)
	}
}
