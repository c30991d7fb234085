package parallel

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Fatalf("Workers(4) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 237
		var counts [n]int64
		if err := ForEach(context.Background(), n, workers, func(i int) {
			atomic.AddInt64(&counts[i], 1)
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestForEachWithStateIsPerWorker: every index runs once, no two
// goroutines hold one state value at the same time, and a pool makes no
// more states than it has workers.
func TestForEachWithStateIsPerWorker(t *testing.T) {
	type state struct{ busy atomic.Bool }
	for _, workers := range []int{1, 2, 8} {
		const n = 237
		var counts [n]int64
		var made atomic.Int64
		newState := func() *state { made.Add(1); return new(state) }
		if err := ForEachWith(context.Background(), n, workers, newState, func(s *state, i int) {
			if !s.busy.CompareAndSwap(false, true) {
				t.Errorf("workers=%d: index %d got a state another goroutine holds", workers, i)
			}
			atomic.AddInt64(&counts[i], 1)
			s.busy.Store(false)
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
		if m := made.Load(); m < 1 || m > int64(min(workers, runtime.GOMAXPROCS(0))) {
			t.Fatalf("workers=%d: %d states made", workers, m)
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(context.Background(), 0, 4, func(int) {
		t.Fatal("fn called for empty index space")
	}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := int64(0)
	err := ForEach(ctx, 1000, 4, func(int) { atomic.AddInt64(&ran, 1) })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if atomic.LoadInt64(&ran) != 0 {
		t.Fatalf("%d items ran after pre-cancelled context", ran)
	}
}

func TestForEachCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int64
	err := ForEach(ctx, 100000, 4, func(i int) {
		if atomic.AddInt64(&ran, 1) == 10 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt64(&ran); n >= 100000 {
		t.Fatal("cancellation did not stop the sweep")
	}
}

func TestForEachNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	ForEach(ctx, 10000, 8, func(i int) {
		if i == 5 {
			cancel()
		}
	})
	cancel()
	// ForEach waits for its pool before returning; allow brief scheduler
	// noise from unrelated runtime goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after", before, after)
	}
}

// TestForEachPanicReachesCaller: a work item's panic on a worker
// goroutine is raised again on the caller's, as a *WorkerPanic holding
// the value and the worker's stack, after every worker has stopped; on
// the serial path it is fn's own panic.
func TestForEachPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, workers := range []int{1, 4} {
		var running atomic.Int64
		got := func() (p any) {
			defer func() { p = recover() }()
			ForEach(context.Background(), 64, workers, func(i int) {
				running.Add(1)
				defer running.Add(-1)
				if i == 5 {
					panic("item 5")
				}
			})
			return nil
		}()
		if workers == 1 {
			if got != "item 5" {
				t.Fatalf("serial: recovered %v, want fn's own panic", got)
			}
			continue
		}
		wp, ok := got.(*WorkerPanic)
		if !ok || wp.Value != "item 5" || !strings.Contains(string(wp.Stack), "TestForEachPanicReachesCaller") {
			t.Fatalf("workers=%d: recovered %#v, want a *WorkerPanic of item 5 with the worker's stack", workers, got)
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("workers=%d: %d items still running when the panic reached the caller", workers, n)
		}
	}
}
