package optimizer

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"astra/internal/dag"
	"astra/internal/graph"
	"astra/internal/model"
	"astra/internal/pricing"
	"astra/internal/telemetry"
	"astra/internal/workload"
)

// TestTemplateKeyNoCollisions is the cache-key safety property: any
// difference in model parameters, tier list, kM/kR caps, DAG mode or
// model flavor must produce a distinct template key —
// a collision would silently serve one tenant another tenant's graph.
func TestTemplateKeyNoCollisions(t *testing.T) {
	base := model.DefaultParams(workload.Sort100GB())

	// One variant per Params field the graph depends on.
	paramVariants := []model.Params{base}
	perturb := func(f func(*model.Params)) {
		p := base
		p.Sheet = clonedSheet(base.Sheet)
		f(&p)
		paramVariants = append(paramVariants, p)
	}
	perturb(func(p *model.Params) { p.Job.NumObjects++ })
	perturb(func(p *model.Params) { p.Job.ObjectSize++ })
	perturb(func(p *model.Params) { p.Job.Profile.Name = "sort-variant" })
	perturb(func(p *model.Params) { p.Job.Profile.USecPerMB *= 1.5 })
	perturb(func(p *model.Params) { p.Job.Profile.CoordSecPerObject += 0.001 })
	perturb(func(p *model.Params) { p.Job.Profile.MapOutputRatio *= 0.5 })
	perturb(func(p *model.Params) { p.Job.Profile.ReduceOutputRatio *= 0.5 })
	perturb(func(p *model.Params) { p.Job.Profile.SingleStepReduce = !p.Job.Profile.SingleStepReduce })
	perturb(func(p *model.Params) { p.BandwidthBps *= 2 })
	perturb(func(p *model.Params) { p.StateObjectBytes++ })
	perturb(func(p *model.Params) { p.RequestLatency += time.Millisecond })
	perturb(func(p *model.Params) { p.DispatchLatency += time.Millisecond })
	perturb(func(p *model.Params) { p.MaxLambdas = 500 })
	perturb(func(p *model.Params) { p.Speed.RefMemMB += 128 })
	perturb(func(p *model.Params) { p.Speed.FloorMemMB += 128 })
	perturb(func(p *model.Params) { p.Sheet.Lambda.PerGBSecond *= 2 })
	perturb(func(p *model.Params) { p.Sheet.Lambda.PerInvocation *= 2 })
	perturb(func(p *model.Params) { p.Sheet.Lambda.MinMemoryMB += 64 })
	perturb(func(p *model.Params) { p.Sheet.Lambda.MaxMemoryMB -= 64 })
	perturb(func(p *model.Params) { p.Sheet.Lambda.MemoryStepMB *= 2 })
	perturb(func(p *model.Params) { p.Sheet.Lambda.BillingQuantum *= 2 })
	perturb(func(p *model.Params) { p.Sheet.Lambda.MaxConcurrency /= 2 })
	perturb(func(p *model.Params) { p.Sheet.Store.PerPut *= 2 })
	perturb(func(p *model.Params) { p.Sheet.Store.PerGet *= 2 })
	perturb(func(p *model.Params) { p.Sheet.Store.StoragePerGBMonth *= 2 })

	optVariants := []dag.Options{
		{},
		{Tiers: []int{1024}},
		{Tiers: []int{1024, 2048}},
		{Tiers: []int{2048, 1024}}, // order matters: it is the node layout
		{MaxKM: 1},
		{MaxKM: 5},
		{MaxKR: 2},
		{MaxKM: 5, MaxKR: 2},
	}

	seen := make(map[TemplateKey]string)
	for pi, p := range paramVariants {
		for oi, o := range optVariants {
			for _, mode := range []dag.Mode{dag.MinimizeTime, dag.MinimizeCost} {
				for _, agg := range []bool{false, true} {
					k := KeyFor(p, mode, o, agg)
					id := fmt.Sprintf("params[%d]/opts[%d]/mode=%d/agg=%v", pi, oi, mode, agg)
					if prev, dup := seen[k]; dup {
						t.Fatalf("template key collision: %s and %s both map to %+v", prev, id, k)
					}
					seen[k] = id
				}
			}
		}
	}

	// Parallelism must NOT change the key: the built graph is identical
	// at every pool size, and splitting the cache by pool size would
	// throw away exactly the cross-tenant hits the cache exists for.
	for _, par := range []int{0, 1, 4, 64} {
		o := dag.Options{MaxKM: 5, Parallelism: par}
		if got, want := o.Fingerprint(), (dag.Options{MaxKM: 5}).Fingerprint(); got != want {
			t.Fatalf("Options.Fingerprint changed with Parallelism=%d: %x != %x", par, got, want)
		}
	}
}

func clonedSheet(s *pricing.Sheet) *pricing.Sheet {
	c := *s
	return &c
}

// normalizePlan strips the fields that legitimately differ between a
// cold and a cached search — wall-clock and work-count statistics — so
// DeepEqual compares only the decision output: configuration, objective,
// predictions.
func normalizePlan(p *Plan) Plan {
	q := *p
	q.Search = SearchStats{}
	return q
}

// TestTemplateHitPlanIdentical asserts the acceptance property: for every
// solver, a plan served from a shared template cache (both the build-miss
// and the hit) is deep-equal to a cold plan with no cache at all.
func TestTemplateHitPlanIdentical(t *testing.T) {
	params := model.DefaultParams(workload.Sort100GB())
	obj := Objective{Goal: MinTimeUnderBudget, Budget: 1}

	for _, tc := range []struct {
		name   string
		solver Solver
	}{
		{"Algorithm1", Algorithm1},
		{"Auto", Auto},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := func(tpl *TemplateCache) *Plan {
				pl := New(params)
				pl.Solver = tc.solver
				pl.Parallelism = 1
				pl.Templates = tpl
				p, err := pl.Plan(obj)
				if err != nil {
					t.Fatalf("plan (templates=%v): %v", tpl != nil, err)
				}
				return p
			}
			cold := normalizePlan(plan(nil))
			shared := NewTemplateCache(0)
			missPlan := normalizePlan(plan(shared)) // populates the cache
			hitPlan := normalizePlan(plan(shared))  // must be served from it
			if st := shared.Stats(); st.Hits == 0 {
				t.Fatalf("second plan did not hit the template cache: %+v", st)
			}
			if !reflect.DeepEqual(cold, missPlan) {
				t.Errorf("template-miss plan differs from cold plan:\ncold: %+v\nmiss: %+v", cold, missPlan)
			}
			if !reflect.DeepEqual(cold, hitPlan) {
				t.Errorf("template-hit plan differs from cold plan:\ncold: %+v\nhit:  %+v", cold, hitPlan)
			}
		})
	}
}

// TestTemplateCacheSingleflight asserts a thundering herd of identical
// keys performs one build and everyone gets the same frozen graph.
func TestTemplateCacheSingleflight(t *testing.T) {
	params := model.DefaultParams(workload.WordCount1GB())
	tc := NewTemplateCache(0)
	key := KeyFor(params, dag.MinimizeTime, dag.Options{}, false)

	const herd = 16
	var builds int
	var mu sync.Mutex
	release := make(chan struct{}) // holds the builder until the herd has joined
	results := make([]*dag.DAG, herd)
	var wg sync.WaitGroup
	wg.Add(herd)
	for i := 0; i < herd; i++ {
		go func(i int) {
			defer wg.Done()
			d, err := tc.Get(context.Background(), key, func(ctx context.Context) (*dag.DAG, error) {
				mu.Lock()
				builds++
				mu.Unlock()
				<-release
				return dag.BuildContext(ctx, model.NewPaper(params), dag.MinimizeTime, dag.Options{Parallelism: 1})
			})
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			results[i] = d
		}(i)
	}
	// Every non-builder registers as a waiting miss before blocking on
	// the flight; release the builder once the whole herd is aboard.
	for tc.Stats().Waits < herd-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if builds != 1 {
		t.Fatalf("herd of %d ran %d builds, want 1", herd, builds)
	}
	for i := 1; i < herd; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different *dag.DAG than caller 0", i)
		}
	}
	st := tc.Stats()
	if st.Builds != 1 || st.Misses != herd || st.Waits != herd-1 {
		t.Fatalf("stats after herd: %+v (want 1 build, %d misses, %d waits)", st, herd, herd-1)
	}
}

// TestTemplateCacheEviction asserts the LRU bound holds and evictions are
// counted, while an evicted key simply rebuilds.
func TestTemplateCacheEviction(t *testing.T) {
	jobs := []workload.Job{
		workload.WordCount1GB(),
		workload.WordCount10GB(),
		workload.Query25GB(),
	}
	tc := NewTemplateCache(2)
	for _, j := range jobs {
		params := model.DefaultParams(j)
		_, err := tc.Get(context.Background(), KeyFor(params, dag.MinimizeTime, dag.Options{}, false),
			func(ctx context.Context) (*dag.DAG, error) {
				return dag.BuildContext(ctx, model.NewPaper(params), dag.MinimizeTime, dag.Options{Parallelism: 1})
			})
		if err != nil {
			t.Fatalf("build %s: %v", j.Profile.Name, err)
		}
	}
	st := tc.Stats()
	if st.Entries > 2 {
		t.Fatalf("cache holds %d entries, cap is 2", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions counted after overflowing the cap: %+v", st)
	}
}

// TestTemplateRaceHammer drives many goroutines planning a mixed set of
// shapes through one small shared template cache and one small shared
// prediction cache — concurrent first-freezes, singleflight joins and
// evictions all interleaving — and asserts every plan equals its
// serially-computed reference. Run under -race, this is the memory-safety
// gate for cross-planner sharing.
func TestTemplateRaceHammer(t *testing.T) {
	shapes := []workload.Job{
		workload.WordCount1GB(),
		workload.WordCount10GB(),
		workload.Query25GB(),
		workload.Sort100GB(),
	}
	solvers := []Solver{Algorithm1, Auto}
	obj := Objective{Goal: MinTimeUnderBudget, Budget: 1}

	// Serial references, one per (shape, solver), no sharing anywhere.
	refs := make(map[[2]int]*Plan)
	for si, j := range shapes {
		for vi, sv := range solvers {
			pl := New(model.DefaultParams(j))
			pl.Solver = sv
			pl.Parallelism = 1
			p, err := pl.Plan(obj)
			if err != nil {
				t.Fatalf("reference plan %s/%d: %v", j.Profile.Name, sv, err)
			}
			norm := normalizePlan(p)
			refs[[2]int{si, vi}] = &norm
		}
	}

	// Cap of 2 over 4 shapes x 2 modes forces continuous eviction and
	// rebuild under contention; the tiny prediction cache forces eviction
	// there too.
	tpl := NewTemplateCache(2)
	pred := model.NewPredictionCacheWithCap(512)

	goroutines, iters := 8, 12
	if testing.Short() {
		goroutines, iters = 4, 6
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				si := (g + i) % len(shapes)
				vi := (g * 7 / 3) % len(solvers)
				pl := New(model.DefaultParams(shapes[si]))
				pl.Solver = solvers[vi]
				pl.Parallelism = 1
				pl.Templates, pl.Cache = tpl, pred
				p, err := pl.Plan(obj)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
				got := normalizePlan(p)
				if want := refs[[2]int{si, vi}]; !reflect.DeepEqual(&got, want) {
					errs <- fmt.Errorf("goroutine %d iter %d: plan for %s/solver %d diverged from serial reference",
						g, i, shapes[si].Profile.Name, solvers[vi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := tpl.Stats(); st.Evictions == 0 {
		t.Logf("warning: hammer produced no template evictions (stats %+v)", st)
	}
}

// TestTemplateSeriesMatchCacheStats: Get is the only writer of
// astra_plan_template_*, so a registry every caller passes holds exactly
// the cache's own totals — while a neighbouring request races the same
// keys (hits, waits, evictions all interleave at cap 4) and scrapes the
// registry throughout. A second writer reconciling the series towards
// Stats() used to over-count builds or evictions here.
func TestTemplateSeriesMatchCacheStats(t *testing.T) {
	keys, trials := 20000, 20
	if testing.Short() {
		keys, trials = 2000, 5
	}
	build := func(context.Context) (*dag.DAG, error) { return &dag.DAG{G: graph.New(1)}, nil }
	for trial := 0; trial < trials; trial++ {
		tel := telemetry.New()
		ctx := telemetry.NewContext(context.Background(), tel)
		tc := NewTemplateCache(4)
		walk := func(scrape bool) {
			for i := 0; i < keys; i++ {
				if _, err := tc.Get(ctx, TemplateKey{Params: uint64(i)}, build); err != nil {
					t.Errorf("Get: %v", err)
				}
				if scrape && i%64 == 0 {
					tel.Snapshot()
				}
			}
		}
		neighbour := make(chan struct{})
		go func() {
			defer close(neighbour)
			walk(true)
		}()
		walk(false)
		<-neighbour

		st := tc.Stats()
		for name, want := range map[string]uint64{
			telemetry.MPlanTemplateHits:      st.Hits,
			telemetry.MPlanTemplateMisses:    st.Misses,
			telemetry.MPlanTemplateBuilds:    st.Builds,
			telemetry.MPlanTemplateEvictions: st.Evictions,
			telemetry.MPlanTemplateWaits:     st.Waits,
		} {
			if got := tel.Counter(name).Value(); got != int64(want) {
				t.Errorf("trial %d: %s = %d, cache counted %d (%+v)", trial, name, got, want, st)
			}
		}
		if st.Hits+st.Misses != uint64(2*keys) || st.Builds < uint64(keys) {
			t.Fatalf("trial %d: implausible traffic %+v", trial, st)
		}
	}
}
