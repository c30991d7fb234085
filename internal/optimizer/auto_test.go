package optimizer

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"astra/internal/dag"
	"astra/internal/graph"
	"astra/internal/model"
	"astra/internal/pricing"
	"astra/internal/telemetry"
	"astra/internal/workload"
)

// randomInstance draws a small planning problem: any profile, 4-12
// objects of 4-96 MiB, and a random subset of the small tier list.
func randomInstance(rng *rand.Rand) (model.Params, dag.Options) {
	names := workload.Names()
	prof, err := workload.ByName(names[rng.Intn(len(names))])
	if err != nil {
		panic(err)
	}
	params := model.DefaultParams(workload.Job{
		Profile:    prof,
		NumObjects: 4 + rng.Intn(9),
		ObjectSize: int64(4+rng.Intn(93)) << 20,
	})
	var tiers []int
	for _, t := range smallTiers {
		if rng.Intn(4) > 0 {
			tiers = append(tiers, t)
		}
	}
	if len(tiers) < 2 {
		tiers = smallTiers
	}
	return params, dag.Options{Tiers: tiers}
}

// instancePlanner is a fresh serial planner with its own books.
func instancePlanner(params model.Params, opts dag.Options, s Solver) *Planner {
	pl := New(params)
	pl.Solver = s
	pl.DAGOptions = opts
	pl.Parallelism = 1
	pl.Tel = telemetry.New()
	return pl
}

// bindingObjective places the goal's constraint a fraction f of the way
// from the tightest value any plan can meet to the one every plan meets,
// under the exact model — the benchmark's binding_constraint recipe.
func bindingObjective(t *testing.T, params model.Params, opts dag.Options, goal Goal, f float64) Objective {
	t.Helper()
	fastest, err := instancePlanner(params, opts, Auto).Plan(unconstrainedTime())
	if err != nil {
		t.Fatal(err)
	}
	cheapest, err := instancePlanner(params, opts, Auto).Plan(unconstrainedCost())
	if err != nil {
		t.Fatal(err)
	}
	if goal == MinCostUnderDeadline {
		lo, hi := fastest.Exact.JCT(), cheapest.Exact.JCT()
		return Objective{Goal: goal, Deadline: lo + time.Duration(f*float64(hi-lo))}
	}
	lo, hi := cheapest.Exact.TotalCost(), fastest.Exact.TotalCost()
	return Objective{Goal: goal, Budget: lo + pricing.USD(f*float64(hi-lo))}
}

func samePlan(a, b *Plan) bool {
	return a.Config == b.Config &&
		a.Exact.JCT() == b.Exact.JCT() && a.Exact.TotalCost() == b.Exact.TotalCost() &&
		a.Paper.JCT() == b.Paper.JCT() && a.Paper.TotalCost() == b.Paper.TotalCost()
}

// TestAutoPathIsTheCSPPath: on the instance's own DAG, the default
// solver's search — label-setting over the template's memoized to-go
// bounds — returns the plain shortest path bit for bit (nodes, W and
// Side) when no budget is set, so a loose plan is what Algorithm 1's
// first round returns. Across budgets from infeasible to loose it finds
// a path exactly when label-setting over the graph's own bounds does,
// with the same objective, inside the budget, and at any budget the
// shortest path meets, that path's objective.
func TestAutoPathIsTheCSPPath(t *testing.T) {
	ctx := context.Background()
	same := func(a, b graph.Path) bool {
		return reflect.DeepEqual(a.Nodes, b.Nodes) &&
			math.Float64bits(a.W) == math.Float64bits(b.W) && math.Float64bits(a.Side) == math.Float64bits(b.Side)
	}
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(4200 + seed))
		params, opts := randomInstance(rng)
		for _, mode := range []dag.Mode{dag.MinimizeTime, dag.MinimizeCost} {
			d, err := dag.BuildContext(ctx, model.NewPaper(params), mode, opts)
			if err != nil {
				t.Fatal(err)
			}
			free, err := d.G.ShortestPath(d.Src, d.Dst)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := labelSetting(ctx, d, math.Inf(1)); err != nil || !same(got, free) {
				t.Fatalf("seed %d %v: unconstrained label-setting %+v (err %v), shortest path %+v", seed, mode, got, err, free)
			}
			lo, hi := d.ToGoBounds(ctx).SideToGo[d.Src], free.Side
			for trial := 0; trial < 6; trial++ {
				budget := lo + (hi-lo)*(rng.Float64()*1.2-0.1)
				got, gerr := labelSetting(ctx, d, budget)
				want, werr := d.G.ConstrainedShortestPathCtx(ctx, d.Src, d.Dst, budget)
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("seed %d %v budget %v: default err %v, unbounded err %v", seed, mode, budget, gerr, werr)
				}
				if werr != nil {
					continue
				}
				// Equal objective, not equal nodes: two configurations can
				// tie in W to the last bit (the cost tiebreak is 1e-7 of
				// a sum of seconds), and a different budget prunes a
				// different set of labels, so either may settle first.
				if got.W != want.W || got.Side > budget || (budget >= free.Side && got.W != free.W) {
					t.Fatalf("seed %d %v budget %v: default path %+v, unbounded %+v, shortest %+v", seed, mode, budget, got, want, free)
				}
			}
		}
	}
}

// TestLoosePlanPopsOnlyItsPath: the template's to-go bounds are exact
// distances, so a plan whose constraint does not bind pops only its own
// path's labels. On a query N=207 template the first loose plan runs no
// Dijkstra, pops the optimal path's 9 labels and relaxes at most the 498
// edges that leave them, in both modes; the Dijkstra sweep the default
// solver used to open with relaxed 18,153 (time) and 8,736 (cost) of the
// template's 28,413 edges. That search certifies its answer up to an
// infinite budget, so the repeat pops nothing: one memo hit. Over random
// small instances a loose plan is Algorithm 1's, whose first round is
// that Dijkstra.
func TestLoosePlanPopsOnlyItsPath(t *testing.T) {
	params := model.DefaultParams(workload.Job{Profile: workload.Query, NumObjects: 207, ObjectSize: 32 << 20})
	tc := NewTemplateCache(0)
	for _, obj := range []Objective{unconstrainedTime(), unconstrainedCost()} {
		plan := func() *Plan {
			pl := instancePlanner(params, dag.Options{}, Auto)
			pl.Templates = tc
			p, err := pl.Plan(obj)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		st, hot := plan().Search, plan().Search
		if st.DijkstraRuns != 0 || st.Alg1Rounds != 0 || st.CSPLabelsPopped != 9 || st.CSPMemoHits != 0 ||
			st.EdgesRelaxed == 0 || st.EdgesRelaxed > 498 || st.CalibrationRounds != 0 {
			t.Fatalf("%v: the first loose plan did %d Dijkstra, %d Algorithm 1 rounds, %d memo hits, popped %d labels and relaxed %d edges; want 0, 0, 0, 9 and at most 498",
				obj.Goal, st.DijkstraRuns, st.Alg1Rounds, st.CSPMemoHits, st.CSPLabelsPopped, st.EdgesRelaxed)
		}
		if hot.DAGBuilds != 0 || hot.DijkstraRuns != 0 || hot.CSPLabelsPopped != 0 || hot.EdgesRelaxed != 0 || hot.CSPMemoHits != 1 {
			t.Fatalf("%v: the repeat did %d builds, %d Dijkstra, popped %d labels, relaxed %d edges and hit the memo %d times; want 0, 0, 0, 0 and 1",
				obj.Goal, hot.DAGBuilds, hot.DijkstraRuns, hot.CSPLabelsPopped, hot.EdgesRelaxed, hot.CSPMemoHits)
		}
		t.Logf("%v: %d labels popped, %d edges relaxed of %d", obj.Goal, st.CSPLabelsPopped, st.EdgesRelaxed, st.DAGEdges)
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(4300 + seed))
		params, opts := randomInstance(rng)
		for _, obj := range []Objective{unconstrainedTime(), unconstrainedCost()} {
			got, err := instancePlanner(params, opts, Auto).Plan(obj)
			if err != nil {
				t.Fatal(err)
			}
			want, err := instancePlanner(params, opts, Algorithm1).Plan(obj)
			if err != nil {
				t.Fatal(err)
			}
			if got.Config != want.Config {
				t.Fatalf("seed %d %v: Auto %v != Algorithm1 %v", seed, obj.Goal, got.Config, want.Config)
			}
		}
	}
}

// countdownCtx cancels itself on its n-th Err call, which puts the
// cancellation at every await point of a search in turn.
type countdownCtx struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	ctx, cancel := context.WithCancel(context.Background())
	c := &countdownCtx{Context: ctx, cancel: cancel}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) <= 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestAutoCancellationAtEveryCheck: wherever in a binding plan the
// context fires — before the build, inside the label-setting, inside a
// calibration round — the planner returns
// ctx.Err() itself, never a half-made plan or a feasibility verdict; and
// once the countdown outlasts the search, the uncancelled plan.
func TestAutoCancellationAtEveryCheck(t *testing.T) {
	params, opts := queryParams(), dag.Options{Tiers: smallTiers}
	obj := bindingObjective(t, params, opts, MinCostUnderDeadline, 0.3)
	want, err := instancePlanner(params, opts, Auto).Plan(obj)
	if err != nil {
		t.Fatal(err)
	}
	cancelled := 0
	for n := int64(1); ; n++ {
		ctx := newCountdownCtx(n)
		got, err := instancePlanner(params, opts, Auto).PlanContext(ctx, obj)
		ctx.cancel()
		if err == nil {
			if !samePlan(got, want) {
				t.Fatalf("countdown %d: plan %v differs from the uncancelled %v", n, got.Summary(), want.Summary())
			}
			break
		}
		if err != context.Canceled {
			t.Fatalf("countdown %d: err = %v, want context.Canceled", n, err)
		}
		if cancelled++; cancelled > 10_000 {
			t.Fatal("plan never outlasted the countdown")
		}
	}
	if cancelled < 3 {
		t.Fatalf("only %d cancellation points exercised", cancelled)
	}
}

// bindingShapes and bindingFractions are benchmark/gen.go's smallShapes
// and bindingCells: the 32 binding_constraint cells, four budget
// fractions on each of eight 16- and 20-object shapes of 64 MiB objects.
var bindingShapes = [8]struct {
	workload string
	objects  int
}{
	{"query", 16}, {"query", 20}, {"grep", 16}, {"grep", 20},
	{"spark-sql", 16}, {"spark-sql", 20}, {"sort", 16}, {"sort", 20},
}

var bindingFractions = [8][4]float64{
	{0.55, 0.70, 0.90, 0.95},
	{0.55, 0.70, 0.80, 0.825},
	{0.55, 0.65, 0.925, 0.95},
	{0.55, 0.65, 0.70, 0.95},
	{0.55, 0.70, 0.80, 0.95},
	{0.55, 0.65, 0.75, 0.80},
	{0.65, 0.70, 0.75, 0.80},
	{0.65, 0.70, 0.75, 0.85},
}

// TestBindingCellsCounters pins what the default solver does on the
// benchmark's binding_constraint cells, in counters that repeat exactly:
// no Algorithm 1 round and label-setting on every cell. Planned on a
// template of its own, a cell pops 377 labels per plan. Planned the way
// the benchmark plans them, on one shared template per shape, the first
// pass pops fewer: sort/16 at 0.8 re-solves at a budget inside the
// interval sort/16 at 0.7's re-solve certified, and takes that answer
// from the memo. A repeat pass answers every search from the memo but
// one: sort/20 at 0.65 re-solves to a path with a rival ~7 ULPs away,
// which no certificate covers, so it searches again every time.
func TestBindingCellsCounters(t *testing.T) {
	shared := NewTemplateCache(0)
	cache := model.NewPredictionCache()
	plan := func(tc *TemplateCache, params model.Params, obj Objective) SearchStats {
		pl := instancePlanner(params, dag.Options{}, Auto)
		pl.Templates, pl.Cache = tc, cache
		p, err := pl.Plan(obj)
		if err != nil {
			t.Fatalf("%s/%d %v: %v", params.Job.Profile.Name, params.Job.NumObjects, obj, err)
		}
		return p.Search
	}
	type books struct{ labels, hits, solves int64 }
	var own, first, repeat books
	add := func(b *books, st SearchStats) {
		b.labels += st.CSPLabelsPopped
		b.hits += st.CSPMemoHits
		b.solves += st.CalibrationRounds + 1
	}
	for si, sh := range bindingShapes {
		prof, err := workload.ByName(sh.workload)
		if err != nil {
			t.Fatal(err)
		}
		params := model.DefaultParams(workload.Job{Profile: prof, NumObjects: sh.objects, ObjectSize: 64 << 20})
		priced := func(obj Objective) pricing.USD {
			pl := instancePlanner(params, dag.Options{}, Auto)
			pl.Templates, pl.Cache = shared, cache
			p, err := pl.Plan(obj)
			if err != nil {
				t.Fatal(err)
			}
			return p.Exact.TotalCost()
		}
		lo := priced(Objective{Goal: MinCostUnderDeadline, Deadline: 100 * time.Hour})
		hi := priced(Objective{Goal: MinTimeUnderBudget, Budget: 10})
		if !(hi > lo && lo > 0) {
			t.Fatalf("%s/%d: cost range [%v, %v] leaves no room for a binding budget", sh.workload, sh.objects, lo, hi)
		}
		for _, f := range bindingFractions[si] {
			obj := Objective{Goal: MinTimeUnderBudget, Budget: lo + pricing.USD(f*float64(hi-lo))}
			alone := plan(NewTemplateCache(0), params, obj)
			if alone.Alg1Rounds != 0 || alone.CSPLabelsPopped == 0 || alone.CSPMemoHits != 0 {
				t.Errorf("%s/%d f=%v on its own template: %d Algorithm 1 rounds, %d labels popped, %d memo hits; want 0, > 0 and 0",
					sh.workload, sh.objects, f, alone.Alg1Rounds, alone.CSPLabelsPopped, alone.CSPMemoHits)
			}
			add(&own, alone)
			add(&first, plan(shared, params, obj))
			add(&repeat, plan(shared, params, obj))
		}
	}
	// Labels popped repeat exactly: 377 per plan over the 32 cells.
	if own.labels != 32*377 {
		t.Errorf("%d labels popped over 32 binding plans on their own templates (%.2f per plan), want %d (377 per plan)", own.labels, float64(own.labels)/32, 32*377)
	}
	if first.labels != 11786 || first.hits != 1 || first.solves != own.solves {
		t.Errorf("first pass on shared templates: %d labels, %d memo hits over %d solves; want 11786, 1 and %d", first.labels, first.hits, first.solves, own.solves)
	}
	if repeat.labels != 558 || repeat.hits != repeat.solves-1 || repeat.solves != own.solves {
		t.Errorf("repeat pass: %d labels, %d memo hits over %d solves; want 558, %d and %d", repeat.labels, repeat.hits, repeat.solves, repeat.solves-1, own.solves)
	}
	t.Logf("own templates %+v, first pass %+v, repeat %+v", own, first, repeat)
}

// TestBoundsComputedOncePerTemplate: eight concurrent binding plans and a
// frontier sweep, all landing on one fresh cost-mode template, compute
// its to-go bounds once between them; a second wave computes nothing.
func TestBoundsComputedOncePerTemplate(t *testing.T) {
	params, opts := queryParams(), dag.Options{Tiers: smallTiers}
	obj := bindingObjective(t, params, opts, MinCostUnderDeadline, 0.4)
	tc, cache, reg := NewTemplateCache(0), model.NewPredictionCache(), telemetry.New()
	wave := func() {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 9; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				if i == 0 {
					pl := &Planner{Params: params, DAGOptions: opts, Parallelism: 1, Cache: cache, Templates: tc, Tel: reg}
					if _, err := pl.Frontier(context.Background(), 8, nil); err != nil {
						t.Errorf("sweep: %v", err)
					}
					return
				}
				pl := instancePlanner(params, opts, Auto)
				pl.Templates, pl.Cache, pl.Tel = tc, cache, reg
				plan, err := pl.Plan(obj)
				if err != nil {
					t.Errorf("plan %d: %v", i, err)
					return
				}
				if plan.Search.CSPLabelsPopped == 0 && plan.Search.CSPMemoHits == 0 {
					t.Errorf("plan %d did not search: %+v", i, plan.Search)
				}
			}(i)
		}
		close(start)
		wg.Wait()
	}
	for w := 1; w <= 2; w++ {
		wave()
		if n := len(reg.Snapshot().SpansUnder("plan/togo-bounds")); n != 1 {
			t.Fatalf("after wave %d: to-go bounds computed %d times on one template, want 1", w, n)
		}
	}
	if st := tc.Stats(); st.Builds != 1 {
		t.Fatalf("template built %d times, want 1", st.Builds)
	}
}
