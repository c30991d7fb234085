package server

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"astra/internal/telemetry"
)

// respSeries are the counters RespCache books.
var respSeries = []string{
	telemetry.MServerRespCacheHits, telemetry.MServerRespCacheMisses,
	telemetry.MServerRespCacheExpired, telemetry.MServerRespCacheEvictions,
}

// respBooks reads the non-zero astra_server_respcache_* counters.
func respBooks(tel *telemetry.Registry) map[string]int64 {
	books := map[string]int64{}
	for _, name := range respSeries {
		if v := tel.Counter(name).Value(); v != 0 {
			books[name] = v
		}
	}
	return books
}

// bookStep runs one scripted call on a cache counting into tel and
// checks that it booked exactly want and left entries resident, with the
// entries gauge equal to the cache's Len: the registry is the cache's
// complete book.
func bookStep(t *testing.T, c *RespCache, tel *telemetry.Registry, what string, do func(), want map[string]int64, entries int) {
	t.Helper()
	before := respBooks(tel)
	do()
	delta := map[string]int64{}
	for name, v := range respBooks(tel) {
		if d := v - before[name]; d != 0 {
			delta[name] = d
		}
	}
	if !reflect.DeepEqual(delta, want) {
		t.Errorf("%s booked %v, want %v", what, delta, want)
	}
	if n, g := c.c.Len(), tel.Gauge(telemetry.MServerRespCacheEntries).Value(); n != entries || g != int64(n) {
		t.Errorf("after %s: Len %d, entries gauge %d; want %d for both", what, n, g, entries)
	}
}

func TestRespCacheHitMissAndTTL(t *testing.T) {
	clk := newVclock()
	tel := telemetry.New()
	c := NewRespCache(8, time.Minute, tel, clk.now)
	miss := map[string]int64{telemetry.MServerRespCacheMisses: 1}
	hit := map[string]int64{telemetry.MServerRespCacheHits: 1}
	get := func(want string) func() {
		return func() {
			if got := string(c.Get("k")); got != want {
				t.Errorf("Get = %q, want %q", got, want)
			}
		}
	}

	bookStep(t, c, tel, "a cold Get", get(""), miss, 0)
	bookStep(t, c, tel, "a Put", func() { c.Put("k", []byte("body")) }, map[string]int64{}, 1)
	bookStep(t, c, tel, "a warm Get", get("body"), hit, 1)
	// One tick short of the TTL still hits; at the TTL the entry expires
	// and the expiry is booked beside the miss.
	clk.advance(time.Minute - time.Nanosecond)
	bookStep(t, c, tel, "a Get short of the TTL", get("body"), hit, 1)
	clk.advance(time.Minute)
	bookStep(t, c, tel, "a Get at the TTL", get(""), map[string]int64{
		telemetry.MServerRespCacheMisses: 1, telemetry.MServerRespCacheExpired: 1,
	}, 0)

	// A render and a request that waits for it are two misses, the
	// waiter's booked before it blocks; a later Do hits.
	render := func(ctx context.Context) ([]byte, error) { return []byte("body"), nil }
	bookStep(t, c, tel, "a render and a waiter", func() {
		started, release := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		do := func(render func(context.Context) ([]byte, error)) {
			defer wg.Done()
			if body, hit, err := c.Do(context.Background(), "k", render); string(body) != "body" || hit || err != nil {
				t.Errorf("Do = %q, hit %v, %v; want a rendered miss", body, hit, err)
			}
		}
		go do(func(ctx context.Context) ([]byte, error) {
			close(started)
			<-release
			return render(ctx)
		})
		<-started
		misses := tel.Counter(telemetry.MServerRespCacheMisses)
		before := misses.Value()
		go do(render)
		for deadline := time.Now().Add(5 * time.Second); misses.Value() < before+1 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		close(release)
		wg.Wait()
	}, map[string]int64{telemetry.MServerRespCacheMisses: 2}, 1)
	bookStep(t, c, tel, "a warm Do", func() {
		if _, hit, err := c.Do(context.Background(), "k", render); !hit || err != nil {
			t.Errorf("warm Do: hit %v, %v", hit, err)
		}
	}, hit, 1)
}

func TestRespCacheLRUEviction(t *testing.T) {
	clk := newVclock()
	tel := telemetry.New()
	c := NewRespCache(3, time.Hour, tel, clk.now)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	// Touch k0 so k1 becomes the eviction victim.
	if c.Get("k0") == nil {
		t.Fatal("k0 missing before eviction")
	}
	bookStep(t, c, tel, "a Put past the bound", func() { c.Put("k3", []byte{3}) },
		map[string]int64{telemetry.MServerRespCacheEvictions: 1}, 3)
	if c.Get("k1") != nil {
		t.Fatal("LRU victim k1 survived")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if c.Get(k) == nil {
			t.Fatalf("%s evicted wrongly", k)
		}
	}
}

func TestRespCachePutRefreshesTTL(t *testing.T) {
	clk := newVclock()
	c := NewRespCache(8, time.Minute, telemetry.New(), clk.now)
	c.Put("k", []byte("v1"))
	clk.advance(45 * time.Second)
	c.Put("k", []byte("v2"))
	clk.advance(45 * time.Second)
	if got := string(c.Get("k")); got != "v2" {
		t.Fatalf("refreshed entry = %q, want v2 still resident", got)
	}
}
