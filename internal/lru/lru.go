// Package lru is the one bounded cache in the tree: least-recently-used
// eviction, an optional time-to-live, and single-flight fills, behind a
// small generic type. optimizer.TemplateCache and server.RespCache are
// typed wrappers over it that add only their keys and metric series.
//
// Single-flight means that of any number of concurrent Do calls missing
// on one key, exactly one runs the fill while the rest wait for its
// value: a thundering herd of identical cold requests costs one fill. A
// failed fill is never cached, and its waiters retry rather than inherit
// the error, so one caller's failure or cancellation cannot poison a key
// for the others.
package lru

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"
)

// Cache is a bounded map from K to V. All methods are safe for
// concurrent use. Values are shared between callers and must be treated
// as immutable.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ttl   time.Duration
	now   func() time.Time
	order *list.List // resident entries, most recently used first
	items map[K]*entry[K, V]
}

// entry is one slot. While its fill is in flight it is in items only (so
// eviction cannot reach it) and el is nil; done is closed when the fill
// ends, after which val, err and stored never change — a Put replaces
// the entry instead of updating it, so woken waiters read without the
// lock.
type entry[K comparable, V any] struct {
	key    K
	el     *list.Element
	done   chan struct{}
	val    V
	err    error
	stored time.Time
}

// Result says what one call did to the cache. The cache keeps no tally
// of its own: a caller that wants its traffic counted counts these (and
// Do's onWait calls) into its own metric series.
type Result struct {
	// Hit reports that a resident, unexpired value was served.
	Hit bool
	// Expired reports that the key's resident value had outlived the TTL
	// and was dropped on the way.
	Expired bool
	// Evicted is how many resident values this call displaced to keep the
	// bound.
	Evicted int
}

// New creates a cache holding at most capacity values (at least one),
// each for at most ttl (ttl <= 0: until evicted). now is the clock the
// TTL runs on; nil selects time.Now.
func New[K comparable, V any](capacity int, ttl time.Duration, now func() time.Time) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	if now == nil {
		now = time.Now
	}
	return &Cache[K, V]{
		cap:   capacity,
		ttl:   ttl,
		now:   now,
		order: list.New(),
		items: make(map[K]*entry[K, V]),
	}
}

// Len reports the resident value count (fills in flight excluded).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Get returns the resident value for key without filling: a miss (or an
// expired value, which is dropped) returns the zero V with Hit false. A
// fill in flight for key is not waited for.
func (c *Cache[K, V]) Get(key K) (V, Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, res := c.lookupLocked(key)
	if !res.Hit {
		var zero V
		return zero, res
	}
	return e.val, res
}

// Put stores a value, replacing any resident one and restarting its TTL.
// A fill in flight for key keeps running and still answers its own
// waiters, but v is what stays resident.
func (c *Cache[K, V]) Put(key K, v V) Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Result{Evicted: c.publishLocked(&entry[K, V]{key: key, val: v})}
}

// Do returns the value for key, producing it through fill on a miss.
// Exactly one concurrent caller per key runs fill; the rest block on its
// result or their own ctx, and onWait (when non-nil) runs each time this
// caller is about to block that way. fill and onWait run without the
// cache's lock held. A failed fill is not cached: its caller gets the
// error, and its waiters retry, one of them becoming the next filler.
func (c *Cache[K, V]) Do(ctx context.Context, key K, fill func(context.Context) (V, error), onWait func()) (V, Result, error) {
	var zero V
	var res Result
	for {
		c.mu.Lock()
		e, r := c.lookupLocked(key)
		res.Expired = res.Expired || r.Expired
		if r.Hit {
			c.mu.Unlock()
			res.Hit = true
			return e.val, res, nil
		}
		if e != nil {
			// Someone else is mid-fill: this miss waits rather than works.
			c.mu.Unlock()
			if onWait != nil {
				onWait()
			}
			select {
			case <-e.done:
			case <-ctx.Done():
				return zero, res, ctx.Err()
			}
			if e.err != nil {
				continue
			}
			return e.val, res, nil
		}
		e = &entry[K, V]{key: key, done: make(chan struct{})}
		c.items[key] = e
		c.mu.Unlock()

		res.Evicted = c.fill(ctx, e, fill)
		return e.val, res, e.err
	}
}

// errFillPanicked is what the waiters of a fill that panicked see: like
// any failed fill, it sends them round to retry.
var errFillPanicked = errors.New("lru: fill panicked")

// fill runs fill for the in-flight entry e and settles it: published on
// success, dropped on failure, its waiters released either way. A fill
// that panics settles as a failure before the panic goes on up, so the
// key is not left in flight for every later caller to wait on.
func (c *Cache[K, V]) fill(ctx context.Context, e *entry[K, V], fill func(context.Context) (V, error)) (evicted int) {
	defer func() {
		c.mu.Lock()
		// A Put may have taken the key over meanwhile; it stays.
		if c.items[e.key] == e {
			if e.err != nil {
				delete(c.items, e.key)
			} else {
				evicted = c.publishLocked(e)
			}
		}
		c.mu.Unlock()
		close(e.done)
	}()
	e.err = errFillPanicked // what the settle sees if fill never returns
	e.val, e.err = fill(ctx)
	return 0 // the settle sets evicted
}

// lookupLocked resolves key to its resident entry (a hit, moved to the
// front), to the entry of a fill in flight (no hit, non-nil) or to
// nothing, dropping a resident value that has outlived the TTL.
func (c *Cache[K, V]) lookupLocked(key K) (*entry[K, V], Result) {
	e := c.items[key]
	if e == nil || e.el == nil {
		return e, Result{}
	}
	if c.ttl > 0 && c.now().Sub(e.stored) >= c.ttl {
		c.removeLocked(e)
		return nil, Result{Expired: true}
	}
	c.order.MoveToFront(e.el)
	return e, Result{Hit: true}
}

// publishLocked makes e the resident entry for its key, stamps its TTL,
// and evicts from the cold end until the bound holds, reporting how many
// values went. e itself and fills in flight are never evicted, so a herd
// of distinct fills can hold the cache over its bound until they land.
func (c *Cache[K, V]) publishLocked(e *entry[K, V]) int {
	if old := c.items[e.key]; old != nil && old.el != nil {
		c.order.Remove(old.el)
	}
	e.stored = c.now()
	e.el = c.order.PushFront(e)
	c.items[e.key] = e
	evicted := 0
	for len(c.items) > c.cap {
		coldest := c.order.Back()
		if coldest == e.el {
			break
		}
		c.removeLocked(coldest.Value.(*entry[K, V]))
		evicted++
	}
	return evicted
}

// removeLocked drops a resident entry.
func (c *Cache[K, V]) removeLocked(e *entry[K, V]) {
	c.order.Remove(e.el)
	delete(c.items, e.key)
}
