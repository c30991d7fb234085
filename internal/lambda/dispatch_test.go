package lambda

import (
	"testing"
	"time"

	"astra/internal/simtime"
)

func TestDispatchLatencySerializesAsyncLaunches(t *testing.T) {
	w := newWorld(Config{DispatchLatency: 100 * time.Millisecond})
	w.register(t, "f", 1024, func(ctx *Ctx) ([]byte, error) {
		ctx.Work(1)
		return nil, nil
	})
	elapsed := w.run(t, func(p *simtime.Proc) {
		var invs []*Invocation
		for i := 0; i < 5; i++ {
			invs = append(invs, w.pl.InvokeAsync(p, "f", "", nil))
		}
		for _, iv := range invs {
			if _, err := iv.Wait(p); err != nil {
				t.Error(err)
			}
		}
	})
	// 5 serialized dispatches (0.5s) + the last lambda's 1s execution.
	if elapsed != 1500*time.Millisecond {
		t.Fatalf("elapsed = %v, want 1.5s", elapsed)
	}
}

func TestDispatchLatencyOnSyncInvoke(t *testing.T) {
	w := newWorld(Config{DispatchLatency: 250 * time.Millisecond})
	w.register(t, "f", 1024, func(ctx *Ctx) ([]byte, error) {
		ctx.Work(1)
		return nil, nil
	})
	elapsed := w.run(t, func(p *simtime.Proc) {
		if _, err := w.pl.Invoke(p, "f", nil); err != nil {
			t.Fatal(err)
		}
	})
	if elapsed != 1250*time.Millisecond {
		t.Fatalf("elapsed = %v, want 1.25s", elapsed)
	}
}

func TestDispatchExcludedFromBilling(t *testing.T) {
	w := newWorld(Config{DispatchLatency: time.Second})
	w.register(t, "f", 1024, func(ctx *Ctx) ([]byte, error) {
		ctx.Work(0.5)
		return nil, nil
	})
	w.run(t, func(p *simtime.Proc) {
		if _, err := w.pl.Invoke(p, "f", nil); err != nil {
			t.Fatal(err)
		}
	})
	rec := w.pl.Records()[0]
	if rec.Billed != 500*time.Millisecond {
		t.Fatalf("billed = %v; dispatch is client-side and must not be billed", rec.Billed)
	}
	if rec.Start != time.Second {
		t.Fatalf("handler started at %v, want after the 1s dispatch", rec.Start)
	}
}

func TestZeroDispatchIsFree(t *testing.T) {
	w := newWorld(Config{})
	w.register(t, "f", 1024, func(ctx *Ctx) ([]byte, error) { return nil, nil })
	elapsed := w.run(t, func(p *simtime.Proc) {
		iv := w.pl.InvokeAsync(p, "f", "", nil)
		if _, err := iv.Wait(p); err != nil {
			t.Fatal(err)
		}
	})
	if elapsed != 0 {
		t.Fatalf("elapsed = %v, want 0", elapsed)
	}
}
