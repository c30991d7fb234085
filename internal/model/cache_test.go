package model

import (
	"reflect"
	"sync"
	"testing"

	"astra/internal/mapreduce"
	"astra/internal/workload"
)

func cacheTestParams() Params {
	return DefaultParams(workload.Job{
		Profile:    workload.WordCount,
		NumObjects: 10,
		ObjectSize: 8 << 20,
	})
}

func TestFingerprintStable(t *testing.T) {
	a, b := cacheTestParams(), cacheTestParams()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("identical params hash differently: %x vs %x", a.Fingerprint(), b.Fingerprint())
	}
}

func TestFingerprintSeparatesParams(t *testing.T) {
	base := cacheTestParams()
	mutants := []func(*Params){
		func(p *Params) { p.Job.NumObjects++ },
		func(p *Params) { p.Job.ObjectSize *= 2 },
		func(p *Params) { p.Job.Profile.USecPerMB *= 1.5 },
		func(p *Params) { p.Job.Profile.SingleStepReduce = !p.Job.Profile.SingleStepReduce },
		func(p *Params) { p.BandwidthBps *= 2 },
		func(p *Params) { p.MaxLambdas++ },
	}
	for i, mutate := range mutants {
		p := cacheTestParams()
		mutate(&p)
		if p.Fingerprint() == base.Fingerprint() {
			t.Errorf("mutant %d hashes equal to base", i)
		}
	}
}

// countingPredictor counts Predict invocations that reach the underlying
// model, so tests can prove the cache short-circuits repeats.
type countingPredictor struct {
	mu    sync.Mutex
	calls int
	under Predictor
}

func (cp *countingPredictor) Predict(cfg mapreduce.Config) (Prediction, error) {
	cp.mu.Lock()
	cp.calls++
	cp.mu.Unlock()
	return cp.under.Predict(cfg)
}

func (cp *countingPredictor) count() int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.calls
}

func TestPredictionCacheHitsAndMisses(t *testing.T) {
	params := cacheTestParams()
	counted := &countingPredictor{under: NewExact(params)}
	cache := NewPredictionCache()
	pred := cache.Wrap(counted, params.Fingerprint(), "exact")

	cfg := mapreduce.Config{
		MapperMemMB: 1024, CoordMemMB: 256, ReducerMemMB: 1024,
		ObjsPerMapper: 2, ObjsPerReducer: 2,
	}
	first, err := pred.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := pred.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if counted.count() != 1 {
		t.Fatalf("underlying predictor ran %d times, want 1", counted.count())
	}
	if first.TotalSec() != second.TotalSec() || first.TotalCost() != second.TotalCost() {
		t.Fatal("cached prediction differs from computed prediction")
	}
	hits, misses := cache.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
}

func TestPredictionCacheCachesErrors(t *testing.T) {
	params := cacheTestParams()
	counted := &countingPredictor{under: NewExact(params)}
	pred := NewPredictionCache().Wrap(counted, params.Fingerprint(), "exact")

	bad := mapreduce.Config{
		MapperMemMB: 1024, CoordMemMB: 256, ReducerMemMB: 1024,
		ObjsPerMapper: 0, ObjsPerReducer: 2, // invalid: no mapper load
	}
	if _, err := pred.Predict(bad); err == nil {
		t.Fatal("invalid configuration predicted without error")
	}
	if _, err := pred.Predict(bad); err == nil {
		t.Fatal("cached error lost on second probe")
	}
	if counted.count() != 1 {
		t.Fatalf("error probe recomputed %d times, want 1", counted.count())
	}
}

func TestPredictionCacheSeparatesKinds(t *testing.T) {
	params := cacheTestParams()
	cache := NewPredictionCache()
	fp := params.Fingerprint()
	exact := cache.Wrap(NewExact(params), fp, "exact")
	paper := cache.Wrap(NewPaper(params), fp, "paper")

	cfg := mapreduce.Config{
		MapperMemMB: 1024, CoordMemMB: 256, ReducerMemMB: 1024,
		ObjsPerMapper: 2, ObjsPerReducer: 2,
	}
	pe, err := exact.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := paper.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The two models disagree on this configuration; the cache must not
	// collapse their entries.
	if pe.TotalSec() == pp.TotalSec() && pe.TotalCost() == pp.TotalCost() {
		t.Skip("models coincide on this configuration; kind separation unobservable")
	}
	if _, m := cache.Stats(); m != 2 {
		t.Fatalf("misses = %d, want 2 (one per kind)", m)
	}
}

// TestPredictionCacheBoundedEvicts exercises the per-shard cap: a tiny
// bounded cache holding far fewer entries than the probed config space
// must evict, keep serving correct values, and count the displacements.
func TestPredictionCacheBoundedEvicts(t *testing.T) {
	params := cacheTestParams()
	unbounded := NewPredictionCache().Wrap(NewExact(params), params.Fingerprint(), "exact")
	cache := NewPredictionCacheWithCap(cacheShards) // one entry per shard
	pred := cache.Wrap(NewExact(params), params.Fingerprint(), "exact")

	var cfgs []mapreduce.Config
	for kM := 1; kM <= 10; kM++ {
		for kR := 1; kR <= 10; kR++ {
			cfgs = append(cfgs, mapreduce.Config{
				MapperMemMB: 1024, CoordMemMB: 256, ReducerMemMB: 1024,
				ObjsPerMapper: kM, ObjsPerReducer: kR,
			})
		}
	}
	// Two passes: the second re-probes entries the first pass may have
	// displaced, and every answer must still match the unbounded cache.
	for pass := 0; pass < 2; pass++ {
		for _, cfg := range cfgs {
			got, gerr := pred.Predict(cfg)
			want, werr := unbounded.Predict(cfg)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("cfg %+v: err %v vs %v", cfg, gerr, werr)
			}
			if gerr == nil && (got.TotalSec() != want.TotalSec() || got.TotalCost() != want.TotalCost()) {
				t.Fatalf("cfg %+v: bounded cache returned a different prediction", cfg)
			}
		}
	}
	if cache.Evictions() == 0 {
		t.Fatalf("no evictions despite %d configs over a %d-entry cap", len(cfgs), cacheShards)
	}
	total := 0
	for i := range cache.shards {
		cache.shards[i].mu.RLock()
		total += len(cache.shards[i].m)
		cache.shards[i].mu.RUnlock()
	}
	if total > cacheShards {
		t.Fatalf("bounded cache holds %d entries, cap %d", total, cacheShards)
	}
}

// TestPredictionCacheConcurrent pins what the cache promises under
// concurrency: every lookup is counted once, every config ends up
// resident, and a cached value equals a recomputed one. It does not
// single-flight — two goroutines may both miss a config and both compute
// it — so misses has a floor, not a ceiling. Each goroutine looks up
// through its own Tally, whose books must hold exactly its 25 lookups
// while the cache holds the sum.
func TestPredictionCacheConcurrent(t *testing.T) {
	params := cacheTestParams()
	cache := NewPredictionCache()
	var cfgs []mapreduce.Config
	for kM := 1; kM <= 5; kM++ {
		for kR := 1; kR <= 5; kR++ {
			cfgs = append(cfgs, mapreduce.Config{
				MapperMemMB: 1024, CoordMemMB: 256, ReducerMemMB: 1024,
				ObjsPerMapper: kM, ObjsPerReducer: kR,
			})
		}
	}

	const workers = 8
	got := make([][]Prediction, workers)
	tallies := make([]*PredictionCache, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		tallies[w] = cache.Tally()
		pred := tallies[w].Wrap(NewExact(params), params.Fingerprint(), "exact")
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, cfg := range cfgs {
				p, err := pred.Predict(cfg)
				if err != nil {
					t.Errorf("worker %d: %v: %v", w, cfg, err)
				}
				got[w] = append(got[w], p)
			}
		}(w)
	}
	wg.Wait()

	hits, misses := cache.Stats()
	if hits+misses != uint64(workers*len(cfgs)) {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, workers*len(cfgs))
	}
	if misses < uint64(len(cfgs)) {
		t.Fatalf("misses = %d for %d distinct configs", misses, len(cfgs))
	}
	var sumHits, sumMisses uint64
	for w, tally := range tallies {
		h, m := tally.Stats()
		if h+m != uint64(len(cfgs)) {
			t.Errorf("tally %d: hits+misses = %d, want %d", w, h+m, len(cfgs))
		}
		sumHits, sumMisses = sumHits+h, sumMisses+m
	}
	if sumHits != hits || sumMisses != misses {
		t.Errorf("tallies sum to %d hits / %d misses, cache counted %d / %d", sumHits, sumMisses, hits, misses)
	}
	resident := 0
	for i := range cache.shards {
		resident += len(cache.shards[i].m)
	}
	if resident != len(cfgs) {
		t.Errorf("%d resident entries, want %d", resident, len(cfgs))
	}
	for w := 1; w < workers; w++ {
		if !reflect.DeepEqual(got[w], got[0]) {
			t.Errorf("worker %d read different predictions than worker 0", w)
		}
	}
}
