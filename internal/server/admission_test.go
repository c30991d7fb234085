package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"astra/internal/telemetry"
)

// vclock is a manually-advanced clock; admission decisions become a pure
// function of the request sequence.
type vclock struct {
	mu sync.Mutex
	t  time.Time
}

func newVclock() *vclock {
	return &vclock{t: time.Unix(1_700_000_000, 0)}
}

func (c *vclock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *vclock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestAdmissionDeterministic429Sequence pins the determinism contract:
// with a fixed virtual clock, the accept/reject sequence — including
// every Retry-After value — is byte-identical across runs.
func TestAdmissionDeterministic429Sequence(t *testing.T) {
	run := func() string {
		clk := newVclock()
		a := NewAdmission(TenantQuota{Rate: 2, Burst: 3, MaxInFlight: 8}, telemetry.New(), nil, clk.now)
		out := ""
		for i := 0; i < 10; i++ {
			ticket, rej, err := a.Admit(context.Background(), "t1")
			switch {
			case err != nil:
				t.Fatalf("admit %d: %v", i, err)
			case rej != nil:
				out += fmt.Sprintf("reject(%s,%s);", rej.Reason, rej.RetryAfter)
			default:
				out += "admit;"
				ticket.Release()
			}
			clk.advance(100 * time.Millisecond) // refills 0.2 tokens/step
		}
		return out
	}
	first := run()
	// Burst of 3 admits immediately; then the bucket crawls at 0.2
	// tokens per step, so most steps reject with a precise refill wait.
	want := "admit;admit;admit;" +
		"reject(rate,200ms);reject(rate,100ms);admit;" +
		"reject(rate,400ms);reject(rate,300ms);reject(rate,200ms);reject(rate,100ms);"
	if first != want {
		t.Fatalf("sequence:\n got %s\nwant %s", first, want)
	}
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d diverged:\n got %s\nwant %s", i, got, first)
		}
	}
}

// TestAdmissionTenantsIndependent: one tenant exhausting its bucket must
// not affect another's.
func TestAdmissionTenantsIndependent(t *testing.T) {
	clk := newVclock()
	a := NewAdmission(TenantQuota{Rate: 1, Burst: 1, MaxInFlight: 4}, telemetry.New(), nil, clk.now)
	tk, rej, _ := a.Admit(context.Background(), "a")
	if rej != nil {
		t.Fatal("tenant a first request rejected")
	}
	tk.Release()
	if _, rej, _ := a.Admit(context.Background(), "a"); rej == nil {
		t.Fatal("tenant a second request should be rate-limited")
	}
	tk, rej, _ = a.Admit(context.Background(), "b")
	if rej != nil {
		t.Fatalf("tenant b rejected by tenant a's bucket: %+v", rej)
	}
	tk.Release()
}

// TestAdmissionQueueFIFO: waiters past the in-flight cap are served
// oldest-first as slots free up, and QueueWait is measured on the
// injected clock.
func TestAdmissionQueueFIFO(t *testing.T) {
	clk := newVclock()
	tel := telemetry.New()
	queued := tel.Gauge(telemetry.MServerQueueDepth)
	a := NewAdmission(TenantQuota{Burst: 100, MaxInFlight: 1, MaxQueue: 4}, tel, nil, clk.now)
	first, rej, err := a.Admit(context.Background(), "t")
	if rej != nil || err != nil {
		t.Fatalf("first admit: rej=%v err=%v", rej, err)
	}

	order := make(chan int, 3)
	var started, done sync.WaitGroup
	for i := 1; i <= 3; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			started.Done()
			tk, rej, err := a.Admit(context.Background(), "t")
			if rej != nil || err != nil {
				t.Errorf("queued admit %d: rej=%v err=%v", i, rej, err)
				return
			}
			order <- i
			tk.Release()
		}(i)
		started.Wait()
		started = sync.WaitGroup{}
		// Wait until this goroutine is parked in the queue before
		// launching the next, so arrival order is the launch order.
		for {
			if queued.Value() == int64(i) {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}

	clk.advance(50 * time.Millisecond)
	first.Release()
	done.Wait()
	for want := 1; want <= 3; want++ {
		if got := <-order; got != want {
			t.Fatalf("service order: got %d, want %d", got, want)
		}
	}
}

// TestAdmissionQueueFullRejects: a full accept queue is a deterministic
// 429, not unbounded memory.
func TestAdmissionQueueFullRejects(t *testing.T) {
	a := NewAdmission(TenantQuota{Burst: 100, MaxInFlight: 1, MaxQueue: 0}, telemetry.New(), nil, newVclock().now)
	tk, _, _ := a.Admit(context.Background(), "t")
	defer tk.Release()
	_, rej, err := a.Admit(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	if rej == nil || rej.Reason != "queue_full" || rej.RetryAfter != queueFullRetry {
		t.Fatalf("rejection = %+v, want queue_full with %s", rej, queueFullRetry)
	}
}

// TestAdmissionQueuedWaiterCancel: a cancelled waiter leaves the queue
// and never leaks the slot, even when the grant races the cancellation.
func TestAdmissionQueuedWaiterCancel(t *testing.T) {
	tel := telemetry.New()
	a := NewAdmission(TenantQuota{Burst: 100, MaxInFlight: 1, MaxQueue: 4}, tel, nil, newVclock().now)
	tk, _, _ := a.Admit(context.Background(), "t")

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := a.Admit(ctx, "t")
		errc <- err
	}()
	for tel.Gauge(telemetry.MServerQueueDepth).Value() != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("cancelled waiter error = %v", err)
	}
	tk.Release()
	// The slot must be free again: a fresh request admits immediately.
	tk2, rej, err := a.Admit(context.Background(), "t")
	if rej != nil || err != nil {
		t.Fatalf("slot leaked: rej=%v err=%v", rej, err)
	}
	tk2.Release()
}

// TestAdmissionDrainingReleasesWaiters: closing the shutdown channel
// aborts queued waiters with ErrDraining.
func TestAdmissionDrainingReleasesWaiters(t *testing.T) {
	closing := make(chan struct{})
	tel := telemetry.New()
	a := NewAdmission(TenantQuota{Burst: 100, MaxInFlight: 1, MaxQueue: 4}, tel, closing, newVclock().now)
	tk, _, _ := a.Admit(context.Background(), "t")
	defer tk.Release()
	errc := make(chan error, 1)
	go func() {
		_, _, err := a.Admit(context.Background(), "t")
		errc <- err
	}()
	for tel.Gauge(telemetry.MServerQueueDepth).Value() != 1 {
		time.Sleep(time.Millisecond)
	}
	close(closing)
	if err := <-errc; err != ErrDraining {
		t.Fatalf("drained waiter error = %v, want ErrDraining", err)
	}
}
