package lru

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The wrappers' own suites (optimizer/template_test.go,
// server/respcache_test.go) pin the herd, plain eviction and the TTL
// edge; these cover what only the generic type can show.

// clock is a settable time source, safe for concurrent use.
type clock struct{ ns atomic.Int64 }

func (c *clock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *clock) advance(d time.Duration) { c.ns.Add(int64(d)) }

func value(v string) func(context.Context) (string, error) {
	return func(context.Context) (string, error) { return v, nil }
}

// tally counts what a test's Do calls report through their callbacks:
// the cache keeps no tally of its own.
type tally struct{ fills, waits atomic.Int64 }

// value is a fill that counts itself and yields v.
func (tl *tally) value(v string) func(context.Context) (string, error) {
	return func(context.Context) (string, error) {
		tl.fills.Add(1)
		return v, nil
	}
}

// wait is the onWait callback that counts a waiter.
func (tl *tally) wait() { tl.waits.Add(1) }

// waitFor polls until n waiters have counted themselves: every joiner
// calls onWait before it blocks, so this is "the herd is aboard".
func (tl *tally) waitFor(n int64) {
	for tl.waits.Load() < n {
		time.Sleep(time.Millisecond)
	}
}

func TestDoRefillsExpiredOnce(t *testing.T) {
	clk := &clock{}
	c := New[string, string](4, time.Minute, clk.now)
	bg := context.Background()
	if v, res, err := c.Do(bg, "k", value("v1"), nil); v != "v1" || res.Hit || err != nil {
		t.Fatalf("cold Do = %q, %+v, %v", v, res, err)
	}
	clk.advance(time.Minute)
	v, res, err := c.Do(bg, "k", value("v2"), nil)
	if v != "v2" || res.Hit || !res.Expired || err != nil {
		t.Fatalf("Do at the TTL = %q, %+v, %v; want a refill that reports the expiry", v, res, err)
	}
	if v, res, _ := c.Do(bg, "k", value("v3"), nil); v != "v2" || !res.Hit {
		t.Fatalf("Do after refill = %q, %+v; want a hit on v2", v, res)
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

func TestPutDuringFill(t *testing.T) {
	c := New[string, string](4, 0, nil)
	started, release := make(chan struct{}), make(chan struct{})
	got := make(chan string)
	go func() {
		v, _, _ := c.Do(context.Background(), "k", func(context.Context) (string, error) {
			close(started)
			<-release
			return "filled", nil
		}, nil)
		got <- v
	}()
	<-started
	c.Put("k", "put")
	if v, res := c.Get("k"); v != "put" || !res.Hit {
		t.Fatalf("Get during the fill = %q, %+v; want the Put value", v, res)
	}
	close(release)
	if v := <-got; v != "filled" {
		t.Fatalf("filler got %q, want its own value", v)
	}
	if v, _ := c.Get("k"); v != "put" {
		t.Fatalf("resident after the fill = %q; the later Put must stay", v)
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

func TestInFlightSurvivesCompetingFill(t *testing.T) {
	c := New[string, string](1, 0, nil)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan Result)
	go func() {
		_, res, _ := c.Do(context.Background(), "slow", func(context.Context) (string, error) {
			close(started)
			<-release
			return "s", nil
		}, nil)
		done <- res
	}()
	<-started
	// "fast" lands while "slow" holds the only slot's worth of capacity:
	// neither the fill in flight nor the value just stored may go.
	if _, res, _ := c.Do(context.Background(), "fast", value("f"), nil); res.Evicted != 0 {
		t.Fatalf("competing fill evicted %d, want 0", res.Evicted)
	}
	if v, res := c.Get("fast"); v != "f" || !res.Hit {
		t.Fatalf("fast = %q, %+v after its own fill", v, res)
	}
	close(release)
	if res := <-done; res.Evicted != 1 {
		t.Fatalf("slow's landing evicted %d, want 1 (fast)", res.Evicted)
	}
	if v, res := c.Get("slow"); v != "s" || !res.Hit {
		t.Fatalf("slow = %q, %+v after landing", v, res)
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

func TestCancelledWaiterLeavesFillRunning(t *testing.T) {
	c := New[string, string](4, 0, nil)
	var tl tally
	release := make(chan struct{})
	fill := func(context.Context) (string, error) {
		tl.fills.Add(1)
		<-release
		return "v", nil
	}
	var wg sync.WaitGroup
	results := make([]string, 3)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, _ = c.Do(context.Background(), "k", fill, tl.wait)
		}(i)
	}
	tl.waitFor(2)
	ctx, cancel := context.WithCancel(context.Background())
	waited := 0
	quit := make(chan error)
	go func() {
		_, _, err := c.Do(ctx, "k", fill, func() { waited++; tl.wait() })
		quit <- err
	}()
	tl.waitFor(3)
	cancel()
	if err := <-quit; !errors.Is(err, context.Canceled) || waited != 1 {
		t.Fatalf("cancelled waiter: err %v after %d onWait calls; want context.Canceled after 1", err, waited)
	}
	close(release)
	wg.Wait()
	for i, v := range results {
		if v != "v" {
			t.Fatalf("caller %d got %q; the fill must complete for the others", i, v)
		}
	}
	if fills, waits := tl.fills.Load(), tl.waits.Load(); fills != 1 || waits != 3 {
		t.Fatalf("%d fills / %d waits, want 1 / 3", fills, waits)
	}
}

func TestFailedFillPromotesAWaiter(t *testing.T) {
	c := New[string, string](4, 0, nil)
	var tl tally
	boom := errors.New("boom")
	started, release := make(chan struct{}), make(chan struct{})
	failed := make(chan error)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func(context.Context) (string, error) {
			close(started)
			<-release
			return "", boom
		}, nil)
		failed <- err
	}()
	<-started
	var wg sync.WaitGroup
	results := make([]string, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), "k", tl.value("ok"), tl.wait)
			if err != nil {
				t.Errorf("waiter %d inherited %v", i, err)
			}
			results[i] = v
		}(i)
	}
	tl.waitFor(4)
	close(release)
	if err := <-failed; !errors.Is(err, boom) {
		t.Fatalf("failed filler got %v, want its own error", err)
	}
	wg.Wait()
	for i, v := range results {
		if v != "ok" {
			t.Fatalf("waiter %d got %q", i, v)
		}
	}
	// One waiter refilled; the other three joined it or hit its value.
	if fills, n := tl.fills.Load(), c.Len(); fills != 1 || n != 1 {
		t.Fatalf("%d refills / %d resident, want 1 / 1", fills, n)
	}
}

// TestPanickedFillPromotesAWaiter: a fill that panics passes the panic
// to its own caller and settles like a failed one, so a caller waiting
// on it refills the key instead of waiting on it for good.
func TestPanickedFillPromotesAWaiter(t *testing.T) {
	c := New[string, string](4, 0, nil)
	var tl tally
	started, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan any)
	go func() {
		defer func() { panicked <- recover() }()
		c.Do(context.Background(), "k", func(context.Context) (string, error) {
			close(started)
			<-release
			panic("boom")
		}, nil)
	}()
	<-started
	got := make(chan string)
	go func() {
		v, _, err := c.Do(context.Background(), "k", tl.value("ok"), tl.wait)
		if err != nil {
			t.Errorf("waiter inherited %v", err)
		}
		got <- v
	}()
	tl.waitFor(1)
	close(release)
	if p := <-panicked; p != "boom" {
		t.Fatalf("the filler recovered %v, want its own panic", p)
	}
	if v := <-got; v != "ok" {
		t.Fatalf("waiter got %q", v)
	}
	if fills, n := tl.fills.Load(), c.Len(); fills != 1 || n != 1 {
		t.Fatalf("%d refills / %d resident, want 1 / 1", fills, n)
	}
}

// TestHammer mixes Get, Put and Do over a small keyspace with the TTL on
// and the clock moving; under -race it is the memory-safety gate, and
// the bound and the value-belongs-to-key invariant must hold throughout.
func TestHammer(t *testing.T) {
	const goroutines, iters, keys, capacity = 8, 2000, 12, 4
	clk := &clock{}
	c := New[int, string](capacity, 50*time.Microsecond, clk.now)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g*7 + i) % keys
				want := fmt.Sprint(k)
				var got string
				switch i % 3 {
				case 0:
					var err error
					got, _, err = c.Do(context.Background(), k, func(context.Context) (string, error) {
						if i%11 == 0 {
							return "", errors.New("flaky")
						}
						return want, nil
					}, nil)
					if err != nil {
						continue
					}
				case 1:
					c.Put(k, want)
					clk.advance(time.Microsecond)
					continue
				default:
					var res Result
					if got, res = c.Get(k); !res.Hit {
						continue
					}
				}
				if got != want {
					t.Errorf("key %d served %q", k, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > capacity {
		t.Fatalf("%d resident, cap %d", n, capacity)
	}
}
