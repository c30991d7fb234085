// Package parallel provides the bounded worker pool underneath Astra's
// concurrent plan-search engine. Work is expressed as an index space
// [0, n); callers write results into pre-sized slots so the output is
// deterministic regardless of scheduling, and cancellation is observed
// between work items so a cancelled search returns promptly without
// leaking goroutines.
//
// A panic in a work item on a worker goroutine is raised again on the
// caller's goroutine, after every worker has stopped, so a caller's
// recover sees it as it would a panic in a serial loop.
//
// When the context carries a telemetry registry, each ForEach batch
// reports its size, worker count and peak in-flight workers; with no
// registry attached the pool is byte-for-byte the uninstrumented loop.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"astra/internal/telemetry"
)

// Workers resolves a requested parallelism degree: values <= 0 mean "use
// every available core" (GOMAXPROCS).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// WorkerPanic is what ForEach panics with on its caller's goroutine when
// fn panicked on a worker goroutine: the value fn panicked with, and the
// worker's stack, which the caller's own stack no longer shows.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("%v (on a parallel worker)\n\n%s", p.Value, p.Stack)
}

// ForEach runs fn(i) for every i in [0, n), distributing indices over at
// most workers goroutines (resolved via Workers). fn must write its result
// into a caller-owned slot for index i; it must not touch other indices'
// state. ForEach blocks until every started invocation has returned, so no
// goroutines outlive the call, and returns ctx.Err() if the context was
// cancelled before all indices were claimed (already-claimed items still
// finish). If fn panics, no further index is claimed and ForEach panics
// on the caller's goroutine: with fn's own value on the serial path, with
// a *WorkerPanic holding the first one otherwise.
func ForEach(ctx context.Context, n, workers int, fn func(i int)) error {
	return ForEachWith(ctx, n, workers, func() struct{} { return struct{}{} },
		func(_ struct{}, i int) { fn(i) })
}

// ForEachWith is ForEach with per-worker state: every worker calls
// newState once and hands the value to fn with each index it claims. No
// two goroutines share a value, so fn may keep scratch in it from one
// index to the next (a reused buffer); what it computes for index i still
// goes into i's slot alone.
func ForEachWith[S any](ctx context.Context, n, workers int, newState func() S, fn func(s S, i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	// Effective parallelism is bounded by schedulable cores: spinning up
	// a multi-worker pool on a single-P runtime only adds goroutine
	// churn (the 1-CPU bench host measured parallel plans slower than
	// serial for exactly this reason). The pool-size gauge still records
	// the requested sizing — that is the knob under test — while the
	// degrade is counted separately.
	effective := workers
	if procs := runtime.GOMAXPROCS(0); effective > procs {
		effective = procs
	}
	if tel := telemetry.FromContext(ctx); tel != nil {
		tel.Counter(telemetry.MPoolBatches).Inc()
		tel.Counter(telemetry.MPoolTasks).Add(int64(n))
		tel.Gauge(telemetry.MPoolWorkersPeak).SetMax(int64(workers))
		tel.Gauge(telemetry.MPoolQueueDepthPeak).SetMax(int64(n))
		tel.Histogram(telemetry.MPoolBatchSize, telemetry.SizeBuckets).Observe(float64(n))
		if effective == 1 && workers > 1 {
			tel.Counter(telemetry.MPoolSerialDegrades).Inc()
		}
	}
	if effective == 1 {
		// Serial fast path: no goroutines, identical iteration order.
		s := newState()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(s, i)
		}
		return nil
	}
	workers = effective
	busyPeak := telemetry.FromContext(ctx).Gauge(telemetry.MPoolBusyWorkersPeak)
	var busy atomic.Int64
	var next int64
	var panicked atomic.Pointer[WorkerPanic]
	var wg sync.WaitGroup
	done := ctx.Done()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicked.CompareAndSwap(nil, &WorkerPanic{Value: p, Stack: debug.Stack()})
					atomic.StoreInt64(&next, int64(n)) // claim nothing more
				}
			}()
			s := newState()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				if busyPeak != nil {
					busyPeak.SetMax(busy.Add(1))
				}
				fn(s, i)
				if busyPeak != nil {
					busy.Add(-1)
				}
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
	return ctx.Err()
}
