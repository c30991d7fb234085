package model

import (
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"astra/internal/mapreduce"
)

// Fingerprint returns a stable hash of the parameterization: two Params
// with the same fingerprint produce the same predictions for every
// configuration. It keys the prediction cache, so repeated solver passes
// (and Algorithm 1's iterative edge-removal rounds) over the same job stop
// re-deriving identical model evaluations.
func (p Params) Fingerprint() uint64 {
	h := fnv.New64a()
	u64 := func(v uint64) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	i64 := func(v int64) { u64(uint64(v)) }
	str := func(s string) { h.Write([]byte(s)); h.Write([]byte{0}) }

	// Job shape and profile.
	str(p.Job.Profile.Name)
	f64(p.Job.Profile.USecPerMB)
	f64(p.Job.Profile.CoordSecPerObject)
	f64(p.Job.Profile.MapOutputRatio)
	f64(p.Job.Profile.ReduceOutputRatio)
	if p.Job.Profile.SingleStepReduce {
		i64(1)
	} else {
		i64(0)
	}
	i64(int64(p.Job.NumObjects))
	i64(p.Job.ObjectSize)

	// Platform constants.
	f64(p.BandwidthBps)
	i64(p.StateObjectBytes)
	i64(int64(p.RequestLatency))
	i64(int64(p.DispatchLatency))
	i64(int64(p.MaxLambdas))
	i64(int64(p.Speed.RefMemMB))
	i64(int64(p.Speed.FloorMemMB))

	// Price sheet contents (not pointer identity: equal sheets hash equal).
	if p.Sheet != nil {
		l := p.Sheet.Lambda
		f64(float64(l.PerGBSecond))
		f64(float64(l.PerInvocation))
		i64(int64(l.MinMemoryMB))
		i64(int64(l.MaxMemoryMB))
		i64(int64(l.MemoryStepMB))
		i64(int64(l.BillingQuantum))
		i64(int64(l.Timeout))
		i64(int64(l.MaxConcurrency))
		st := p.Sheet.Store
		f64(float64(st.PerPut))
		f64(float64(st.PerGet))
		f64(float64(st.StoragePerGBMonth))
		i64(st.MaxObjectBytes)
	}
	return h.Sum64()
}

// cacheKey identifies one memoized prediction: the parameter fingerprint,
// a predictor namespace (the paper and exact models disagree for the same
// configuration), and the configuration itself.
type cacheKey struct {
	fp   uint64
	kind string
	cfg  mapreduce.Config
}

// cacheVal holds a memoized Predict outcome, errors included, so repeated
// infeasible probes are as cheap as repeated hits.
type cacheVal struct {
	pred Prediction
	err  error
}

// cacheShards is the shard count; a power of two so the shard pick is a
// mask. 64 shards keeps contention negligible at the pool sizes the
// planner uses.
const cacheShards = 64

type cacheShard struct {
	mu sync.RWMutex
	m  map[cacheKey]cacheVal
}

// PredictionCache is a sharded, concurrency-safe memoization cache for
// model predictions, keyed by (params fingerprint, predictor kind,
// Config). A single cache may serve many parameterizations and predictors
// at once; the zero value is not usable — use NewPredictionCache.
type PredictionCache struct {
	// shards is shared between a cache and its tallies (see Tally).
	shards *[cacheShards]cacheShard
	// shardCap bounds each shard's entry count (0: unbounded). When a
	// full shard takes a new entry, an arbitrary resident entry is
	// evicted; cached values equal recomputed ones, so eviction affects
	// only speed, never results.
	shardCap int

	hits, misses, evictions atomic.Uint64
}

// NewPredictionCache creates an empty, unbounded cache.
func NewPredictionCache() *PredictionCache {
	return NewPredictionCacheWithCap(0)
}

// NewPredictionCacheWithCap creates an empty cache bounded to roughly
// maxEntries memoized predictions (0 or negative: unbounded). The bound
// is enforced per shard, so the real capacity is rounded up to a
// multiple of the shard count.
func NewPredictionCacheWithCap(maxEntries int) *PredictionCache {
	c := &PredictionCache{shards: new([cacheShards]cacheShard)}
	if maxEntries > 0 {
		c.shardCap = (maxEntries + cacheShards - 1) / cacheShards
	}
	for i := range c.shards {
		c.shards[i].m = make(map[cacheKey]cacheVal)
	}
	return c
}

// Tally returns the same cache under books of its own: lookups through
// it (and through predictors it Wraps) read and fill c's entries and
// are counted from zero on the tally alone, not on c. A plan or a sweep
// takes one, so its Stats and Evictions are exactly the traffic it
// caused, whatever else shares c meanwhile.
func (c *PredictionCache) Tally() *PredictionCache {
	return &PredictionCache{shards: c.shards, shardCap: c.shardCap}
}

// shardFor picks the shard for a key by rehashing its volatile parts.
func (c *PredictionCache) shardFor(k cacheKey) *cacheShard {
	h := k.fp
	h ^= uint64(k.cfg.MapperMemMB) * 0x9e3779b97f4a7c15
	h ^= uint64(k.cfg.ReducerMemMB) * 0xbf58476d1ce4e5b9
	h ^= uint64(k.cfg.CoordMemMB) * 0x94d049bb133111eb
	h ^= uint64(k.cfg.ObjsPerMapper)<<32 | uint64(k.cfg.ObjsPerReducer)
	h ^= h >> 33
	return &c.shards[h&(cacheShards-1)]
}

// Stats reports cumulative hit and miss counts of lookups made through
// c itself (a tally's lookups count on the tally only).
func (c *PredictionCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Evictions reports how many entries a bounded cache has displaced.
func (c *PredictionCache) Evictions() uint64 { return c.evictions.Load() }

// predict resolves one configuration through the cache, computing and
// storing on a miss.
func (c *PredictionCache) predict(k cacheKey, compute Predictor, cfg mapreduce.Config) (Prediction, error) {
	sh := c.shardFor(k)
	sh.mu.RLock()
	v, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return v.pred, v.err
	}
	c.misses.Add(1)
	pred, err := compute.Predict(cfg)
	sh.mu.Lock()
	if _, present := sh.m[k]; !present && c.shardCap > 0 && len(sh.m) >= c.shardCap {
		for victim := range sh.m {
			delete(sh.m, victim)
			c.evictions.Add(1)
			break
		}
	}
	sh.m[k] = cacheVal{pred: pred, err: err}
	sh.mu.Unlock()
	return pred, err
}

// cachedPredictor memoizes an underlying predictor through a shared cache.
type cachedPredictor struct {
	cache *PredictionCache
	under Predictor
	fp    uint64
	kind  string
}

// Predict implements Predictor.
func (cp cachedPredictor) Predict(cfg mapreduce.Config) (Prediction, error) {
	return cp.cache.predict(cacheKey{fp: cp.fp, kind: cp.kind, cfg: cfg}, cp.under, cfg)
}

// Wrap returns a Predictor that memoizes under through the cache. kind
// namespaces predictors that disagree for the same configuration (e.g.
// "exact" vs "paper"); fp is the parameter fingerprint the underlying
// predictor was built from. The returned predictor is safe for concurrent
// use if under is.
func (c *PredictionCache) Wrap(under Predictor, fp uint64, kind string) Predictor {
	return cachedPredictor{cache: c, under: under, fp: fp, kind: kind}
}
