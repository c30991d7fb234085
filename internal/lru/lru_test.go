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

// waitFor polls until the cache has counted n waits: every joiner
// registers before it blocks, so this is "the herd is aboard".
func waitFor(c *Cache[string, string], n uint64) {
	for c.Stats().Waits < n {
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
	want := Stats{Hits: 1, Misses: 2, Fills: 2, Expired: 1, Entries: 1}
	if st := c.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
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
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
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
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 1 entry / 1 eviction", st)
	}
}

func TestCancelledWaiterLeavesFillRunning(t *testing.T) {
	c := New[string, string](4, 0, nil)
	release := make(chan struct{})
	fill := func(context.Context) (string, error) {
		<-release
		return "v", nil
	}
	var wg sync.WaitGroup
	results := make([]string, 3)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, _ = c.Do(context.Background(), "k", fill, nil)
		}(i)
	}
	waitFor(c, 2)
	ctx, cancel := context.WithCancel(context.Background())
	waited := 0
	quit := make(chan error)
	go func() {
		_, _, err := c.Do(ctx, "k", fill, func() { waited++ })
		quit <- err
	}()
	waitFor(c, 3)
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
	if st := c.Stats(); st.Fills != 1 || st.Misses != 4 || st.Waits != 3 {
		t.Fatalf("stats = %+v, want 1 fill / 4 misses / 3 waits", st)
	}
}

func TestFailedFillPromotesAWaiter(t *testing.T) {
	c := New[string, string](4, 0, nil)
	boom := errors.New("boom")
	release := make(chan struct{})
	failed := make(chan error)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func(context.Context) (string, error) {
			<-release
			return "", boom
		}, nil)
		failed <- err
	}()
	for c.Stats().Fills < 1 {
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	results := make([]string, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), "k", value("ok"), nil)
			if err != nil {
				t.Errorf("waiter %d inherited %v", i, err)
			}
			results[i] = v
		}(i)
	}
	waitFor(c, 4)
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
	if st := c.Stats(); st.Fills != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 fills / 1 entry", st)
	}
}

// TestPanickedFillPromotesAWaiter: a fill that panics passes the panic
// to its own caller and settles like a failed one, so a caller waiting
// on it refills the key instead of waiting on it for good.
func TestPanickedFillPromotesAWaiter(t *testing.T) {
	c := New[string, string](4, 0, nil)
	release := make(chan struct{})
	panicked := make(chan any)
	go func() {
		defer func() { panicked <- recover() }()
		c.Do(context.Background(), "k", func(context.Context) (string, error) {
			<-release
			panic("boom")
		}, nil)
	}()
	for c.Stats().Fills < 1 {
		time.Sleep(time.Millisecond)
	}
	got := make(chan string)
	go func() {
		v, _, err := c.Do(context.Background(), "k", value("ok"), nil)
		if err != nil {
			t.Errorf("waiter inherited %v", err)
		}
		got <- v
	}()
	waitFor(c, 1)
	close(release)
	if p := <-panicked; p != "boom" {
		t.Fatalf("the filler recovered %v, want its own panic", p)
	}
	if v := <-got; v != "ok" {
		t.Fatalf("waiter got %q", v)
	}
	if st := c.Stats(); st.Fills != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 fills / 1 entry", st)
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
	if st := c.Stats(); st.Entries > capacity {
		t.Fatalf("%d resident, cap %d (stats %+v)", st.Entries, capacity, st)
	}
}
