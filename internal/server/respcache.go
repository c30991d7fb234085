// The TTL'd response cache: a bounded LRU of rendered response bodies
// keyed by canonical request fingerprint. It sits above the DAG-template
// and prediction caches — a hit serves the exact bytes of the first
// response and never touches the search engine at all, which is what
// makes a warm repeated tenant request ~free. Entries expire after a TTL
// so long-lived servers re-plan eventually (a price-sheet or model
// change redeploys the process, but defense in depth is cheap).
package server

import (
	"context"
	"time"

	"astra/internal/lru"
	"astra/internal/telemetry"
)

// RespCacheStats summarizes response-cache traffic.
type RespCacheStats struct {
	Hits   int64
	Misses int64
	// Waits counts the misses that joined another request's render
	// instead of running their own (see Do).
	Waits     int64
	Expired   int64
	Evictions int64
	Entries   int
}

// RespCache is a bounded, TTL'd LRU of rendered responses. Safe for
// concurrent use. The bound, the TTL and the coalescing of concurrent
// misses are lru.Cache's; this type adds the defaults and the
// astra_server_respcache_* series.
type RespCache struct {
	c *lru.Cache[string, []byte]

	hits, misses, expired, evictions *telemetry.Counter
	resident                         *telemetry.Gauge
}

// NewRespCache builds a cache holding at most max entries for at most
// ttl each (max <= 0: 1024; ttl <= 0: 60s). now defaults to time.Now.
func NewRespCache(max int, ttl time.Duration, reg *telemetry.Registry, now func() time.Time) *RespCache {
	if max <= 0 {
		max = 1024
	}
	if ttl <= 0 {
		ttl = time.Minute
	}
	if reg == nil {
		reg = telemetry.New()
	}
	return &RespCache{
		c:         lru.New[string, []byte](max, ttl, now),
		hits:      reg.Counter(telemetry.MServerRespCacheHits),
		misses:    reg.Counter(telemetry.MServerRespCacheMisses),
		expired:   reg.Counter(telemetry.MServerRespCacheExpired),
		evictions: reg.Counter(telemetry.MServerRespCacheEvictions),
		resident:  reg.Gauge(telemetry.MServerRespCacheEntries),
	}
}

// Get returns the cached body for key, or nil on miss. Expired entries
// count as both an expiry and a miss (the caller re-plans and re-Puts).
// The returned slice is shared and must not be mutated.
func (c *RespCache) Get(key string) []byte {
	body, res := c.c.Get(key)
	if !res.Hit {
		c.misses.Inc()
	}
	c.count(res)
	return body
}

// Put stores a rendered response, evicting the least-recently-used
// entry past the bound.
func (c *RespCache) Put(key string, body []byte) {
	c.count(c.c.Put(key, body))
}

// Do is Get, then on a miss render and Put, with concurrent misses on
// one key coalesced: one caller runs render and the rest wait for its
// bytes, so a herd of identical cold requests plans once. hit is true
// only when the body was already resident; a caller that waited counts
// as a miss like the one that rendered. A failed render is not cached
// and fails only its own caller — the waiters retry.
func (c *RespCache) Do(ctx context.Context, key string, render func(context.Context) ([]byte, error)) (body []byte, hit bool, err error) {
	body, res, err := c.c.Do(ctx, key, func(ctx context.Context) ([]byte, error) {
		c.misses.Inc()
		return render(ctx)
	}, c.misses.Inc)
	c.count(res)
	return body, res.Hit, err
}

// count publishes what one call did, misses aside: those are counted at
// the moment they are decided, a waiter's before it blocks.
func (c *RespCache) count(res lru.Result) {
	if res.Hit {
		c.hits.Inc()
		return
	}
	if res.Expired {
		c.expired.Inc()
	}
	c.evictions.Add(int64(res.Evicted))
	c.resident.Set(int64(c.c.Stats().Entries))
}

// Stats snapshots the cache's own tallies (the registry series follow
// them call by call).
func (c *RespCache) Stats() RespCacheStats {
	st := c.c.Stats()
	return RespCacheStats{
		Hits:      int64(st.Hits),
		Misses:    int64(st.Misses),
		Waits:     int64(st.Waits),
		Expired:   int64(st.Expired),
		Evictions: int64(st.Evictions),
		Entries:   st.Entries,
	}
}
