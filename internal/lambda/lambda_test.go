package lambda

import (
	"errors"
	"math"
	"testing"
	"time"

	"astra/internal/objectstore"
	"astra/internal/pricing"
	"astra/internal/simtime"
	"astra/internal/telemetry"
)

type world struct {
	sched *simtime.Scheduler
	store *objectstore.Store
	pl    *Platform
}

func newWorld(cfg Config) *world {
	sched := simtime.NewScheduler()
	store := objectstore.New(sched, objectstore.Config{
		Bandwidth: 100 << 20, // 100 MiB/s
		Pricing:   pricing.AWS().Store,
	})
	return &world{sched: sched, store: store, pl: New(sched, store, cfg)}
}

// register installs a function and fails the test if Register refuses it.
func (w *world) register(t *testing.T, name string, memMB int, handler Handler) {
	t.Helper()
	if _, err := w.pl.Register(name, memMB, handler); err != nil {
		t.Fatal(err)
	}
}

func (w *world) run(t *testing.T, body func(p *simtime.Proc)) time.Duration {
	t.Helper()
	if err := w.sched.Run(body); err != nil {
		t.Fatal(err)
	}
	return w.sched.Now()
}

func TestSpeedModelFactor(t *testing.T) {
	m := SpeedModel{RefMemMB: 1024, FloorMemMB: 1792}
	cases := []struct {
		mem  int
		want float64
	}{
		{1024, 1.0},
		{128, 8.0},
		{512, 2.0},
		{2048, 1024.0 / 1792.0}, // flattened at the floor
		{3008, 1024.0 / 1792.0},
		{1792, 1024.0 / 1792.0},
	}
	for _, c := range cases {
		if got := m.Factor(c.mem); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Factor(%d) = %v, want %v", c.mem, got, c.want)
		}
	}
}

func TestSpeedModelNoFloor(t *testing.T) {
	m := SpeedModel{RefMemMB: 1024}
	if got := m.Factor(3008); math.Abs(got-1024.0/3008.0) > 1e-12 {
		t.Fatalf("Factor(3008) without floor = %v", got)
	}
}

func TestWorkScalesWithMemory(t *testing.T) {
	// 8 reference-seconds of work at 128 MB (8x slower than 1024 ref)
	// takes 64 virtual seconds.
	w := newWorld(Config{})
	w.register(t, "f", 128, func(ctx *Ctx) ([]byte, error) {
		ctx.Work(8)
		return nil, nil
	})
	elapsed := w.run(t, func(p *simtime.Proc) {
		if _, err := w.pl.Invoke(p, "f", nil); err != nil {
			t.Fatal(err)
		}
	})
	if elapsed != 64*time.Second {
		t.Fatalf("elapsed = %v, want 64s", elapsed)
	}
}

func TestInvokeUnknownFunction(t *testing.T) {
	w := newWorld(Config{})
	w.run(t, func(p *simtime.Proc) {
		_, err := w.pl.Invoke(p, "missing", nil)
		if !errors.Is(err, ErrUnknownFunction) {
			t.Fatalf("err = %v, want ErrUnknownFunction", err)
		}
	})
}

func TestRegisterRejectsInvalidMemory(t *testing.T) {
	w := newWorld(Config{})
	if _, err := w.pl.Register("f", 100, nil); !errors.Is(err, ErrBadMemory) {
		t.Fatalf("err = %v, want ErrBadMemory", err)
	}
	if _, err := w.pl.Register("f", 129, nil); !errors.Is(err, ErrBadMemory) {
		t.Fatalf("err = %v, want ErrBadMemory", err)
	}
}

func TestColdStartAndWarmPool(t *testing.T) {
	w := newWorld(Config{ColdStart: 500 * time.Millisecond, KeepAlive: time.Hour})
	w.register(t, "f", 1024, func(ctx *Ctx) ([]byte, error) {
		ctx.Work(1)
		return nil, nil
	})
	w.run(t, func(p *simtime.Proc) {
		if _, err := w.pl.Invoke(p, "f", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := w.pl.Invoke(p, "f", nil); err != nil {
			t.Fatal(err)
		}
	})
	recs := w.pl.Records()
	if len(recs) != 2 {
		t.Fatalf("%d records", len(recs))
	}
	if !recs[0].Cold {
		t.Fatal("first invocation should be cold")
	}
	if recs[1].Cold {
		t.Fatal("second invocation should reuse the warm container")
	}
	// Cold start is visible on the wall clock but not billed.
	if recs[0].Billed != time.Second {
		t.Fatalf("billed = %v, want 1s (cold start unbilled)", recs[0].Billed)
	}
	if recs[0].Start != 500*time.Millisecond {
		t.Fatalf("handler started at %v, want after the 500ms cold start", recs[0].Start)
	}
}

func TestWarmContainerExpires(t *testing.T) {
	w := newWorld(Config{ColdStart: 500 * time.Millisecond, KeepAlive: time.Second})
	w.register(t, "f", 1024, func(ctx *Ctx) ([]byte, error) { return nil, nil })
	w.run(t, func(p *simtime.Proc) {
		_, _ = w.pl.Invoke(p, "f", nil)
		p.Sleep(10 * time.Second) // past keep-alive
		_, _ = w.pl.Invoke(p, "f", nil)
	})
	recs := w.pl.Records()
	if !recs[1].Cold {
		t.Fatal("invocation after keep-alive expiry should be cold")
	}
}

func TestConcurrencyLimitBlocks(t *testing.T) {
	sheet := pricing.AWS()
	sheet.Lambda.MaxConcurrency = 2
	w := newWorld(Config{Sheet: sheet})
	w.register(t, "f", 1024, func(ctx *Ctx) ([]byte, error) {
		ctx.Work(1)
		return nil, nil
	})
	elapsed := w.run(t, func(p *simtime.Proc) {
		p.Parallel(6, "inv", func(q *simtime.Proc, i int) {
			if _, err := w.pl.Invoke(q, "f", nil); err != nil {
				t.Error(err)
			}
		})
	})
	// 6 one-second invocations, 2 at a time -> 3 waves -> 3s.
	if elapsed != 3*time.Second {
		t.Fatalf("elapsed = %v, want 3s", elapsed)
	}
	if w.pl.PeakConcurrency() != 2 {
		t.Fatalf("peak concurrency = %d, want 2", w.pl.PeakConcurrency())
	}
	// Queue wait shows up in the records.
	var queued time.Duration
	for _, r := range w.pl.Records() {
		queued += r.Queued
	}
	if queued != (1+1+2+2)*time.Second {
		t.Fatalf("total queued = %v, want 6s", queued)
	}
}

// throttleWindow is an Injector that rejects every attempt 429-style
// while the virtual clock is before until, and injects nothing else.
type throttleWindow struct{ until simtime.Time }

func (throttleWindow) InvokeFault(InvokeRef, simtime.Time) (InvokeFault, bool) {
	return InvokeFault{}, false
}

func (w throttleWindow) ThrottleInjected(_ InvokeRef, now simtime.Time) bool { return now < w.until }

func TestThrottleErrorModeWithRetries(t *testing.T) {
	w := newWorld(Config{MaxRetries: 3, RetryBackoff: 300 * time.Millisecond})
	tel := telemetry.New()
	w.pl.SetTelemetry(tel)
	w.pl.SetInjector(throttleWindow{until: 500 * time.Millisecond})
	w.register(t, "f", 1024, func(ctx *Ctx) ([]byte, error) {
		ctx.Work(0.5)
		return nil, nil
	})
	w.run(t, func(p *simtime.Proc) {
		if _, err := w.pl.Invoke(p, "f", nil); err != nil {
			t.Fatalf("err = %v; want success once the window clears", err)
		}
	})
	// Rejected at 0 and at 300ms (backoff 300ms, then 600ms); the retry
	// at 900ms lands after the window closes at 500ms.
	if got := w.pl.ChaosCounters().ThrottleRejects; got != 2 {
		t.Fatalf("throttles = %d, want 2", got)
	}
	if got := tel.Counter(telemetry.MLambdaRetries).Value(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	if recs := w.pl.Records(); len(recs) != 1 || recs[0].Start != 900*time.Millisecond {
		t.Fatalf("records = %+v, want one run starting at 900ms", recs)
	}
}

func TestThrottleErrorExhaustsRetries(t *testing.T) {
	w := newWorld(Config{MaxRetries: 1, RetryBackoff: time.Millisecond})
	tel := telemetry.New()
	w.pl.SetTelemetry(tel)
	w.pl.SetInjector(throttleWindow{until: time.Hour})
	w.register(t, "f", 1024, func(ctx *Ctx) ([]byte, error) {
		t.Error("handler ran inside the throttle window")
		return nil, nil
	})
	w.run(t, func(p *simtime.Proc) {
		if _, err := w.pl.Invoke(p, "f", nil); !errors.Is(err, ErrThrottled) {
			t.Fatalf("err = %v, want ErrThrottled after retries are exhausted", err)
		}
	})
	if got := w.pl.ChaosCounters().ThrottleRejects; got != 2 {
		t.Fatalf("throttles = %d, want 2 (the attempt and its one retry)", got)
	}
	if got := tel.Counter(telemetry.MLambdaRetries).Value(); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
	if n := len(w.pl.Records()); n != 0 {
		t.Fatalf("%d records; a throttled attempt never runs", n)
	}
}

func TestTimeoutEnforcedAndBilledAtLimit(t *testing.T) {
	sheet := pricing.AWS()
	sheet.Lambda.Timeout = 2 * time.Second
	w := newWorld(Config{Sheet: sheet})
	w.register(t, "f", 1024, func(ctx *Ctx) ([]byte, error) {
		ctx.Work(10) // way past the 2s timeout
		return nil, nil
	})
	w.run(t, func(p *simtime.Proc) {
		_, err := w.pl.Invoke(p, "f", nil)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
	})
	rec := w.pl.Records()[0]
	if rec.Billed != 2*time.Second {
		t.Fatalf("billed = %v, want exactly the 2s timeout", rec.Billed)
	}
	if !errors.Is(rec.Err, ErrTimeout) {
		t.Fatalf("record error = %v", rec.Err)
	}
}

func TestBillingMatchesPricing(t *testing.T) {
	w := newWorld(Config{})
	w.register(t, "f", 512, func(ctx *Ctx) ([]byte, error) {
		ctx.Work(1) // 2s at 512 MB
		return nil, nil
	})
	w.run(t, func(p *simtime.Proc) {
		if _, err := w.pl.Invoke(p, "f", nil); err != nil {
			t.Fatal(err)
		}
	})
	l := pricing.AWS().Lambda
	want := l.DurationCost(512, 2*time.Second) + l.InvocationCost(1)
	recs := w.pl.Records()
	if len(recs) != 1 || math.Abs(float64(recs[0].Cost-want)) > 1e-15 {
		t.Fatalf("records %+v, want one billed %v", recs, want)
	}
}

func TestHandlerStoreAccessChargesTransfer(t *testing.T) {
	w := newWorld(Config{})
	w.store.Seed("in", "obj", make([]byte, 100<<20)) // 100 MiB at 100 MiB/s = 1s
	w.register(t, "f", 1024, func(ctx *Ctx) ([]byte, error) {
		obj, err := ctx.Get("in", "obj")
		if err != nil {
			return nil, err
		}
		if err := ctx.PutProfiled("in", "out", obj.Size/2); err != nil {
			return nil, err
		}
		return nil, nil
	})
	elapsed := w.run(t, func(p *simtime.Proc) {
		if _, err := w.pl.Invoke(p, "f", nil); err != nil {
			t.Fatal(err)
		}
	})
	if elapsed != 1500*time.Millisecond {
		t.Fatalf("elapsed = %v, want 1.5s (1s down + 0.5s up)", elapsed)
	}
}

func TestInvokeAsyncOverlaps(t *testing.T) {
	w := newWorld(Config{})
	w.register(t, "f", 1024, func(ctx *Ctx) ([]byte, error) {
		ctx.Work(5)
		return []byte("done"), nil
	})
	elapsed := w.run(t, func(p *simtime.Proc) {
		a := w.pl.InvokeAsync(p, "f", "a", nil)
		b := w.pl.InvokeAsync(p, "f", "b", nil)
		ra, err := a.Wait(p)
		if err != nil || string(ra) != "done" {
			t.Fatalf("a: %q, %v", ra, err)
		}
		if _, err := b.Wait(p); err != nil {
			t.Fatal(err)
		}
	})
	if elapsed != 5*time.Second {
		t.Fatalf("elapsed = %v, want 5s (parallel)", elapsed)
	}
}

func TestRecordLabelsAndPayload(t *testing.T) {
	w := newWorld(Config{})
	w.register(t, "echo", 1024, func(ctx *Ctx) ([]byte, error) {
		return ctx.Payload(), nil
	})
	w.run(t, func(p *simtime.Proc) {
		resp, err := w.pl.InvokeLabeled(p, "echo", "mapper-3", []byte("ping"))
		if err != nil {
			t.Fatal(err)
		}
		if string(resp) != "ping" {
			t.Fatalf("resp = %q", resp)
		}
	})
	if lbl := w.pl.Records()[0].Label; lbl != "mapper-3" {
		t.Fatalf("label = %q", lbl)
	}
}

func TestTimeoutDuringStoreTransfer(t *testing.T) {
	sheet := pricing.AWS()
	sheet.Lambda.Timeout = time.Second
	w := newWorld(Config{Sheet: sheet})
	w.store.Seed("in", "huge", make([]byte, 500<<20)) // 5s transfer
	w.register(t, "f", 1024, func(ctx *Ctx) ([]byte, error) {
		_, err := ctx.Get("in", "huge")
		return nil, err
	})
	w.run(t, func(p *simtime.Proc) {
		_, err := w.pl.Invoke(p, "f", nil)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
	})
}
