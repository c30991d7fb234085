package optimizer

import (
	"context"
	"errors"
	"math"
	"math/rand"
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
	fastest, err := instancePlanner(params, opts, CSP).Plan(unconstrainedTime())
	if err != nil {
		t.Fatal(err)
	}
	cheapest, err := instancePlanner(params, opts, CSP).Plan(unconstrainedCost())
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

// TestAutoPlansWhatCSPPlans: over seeded random small instances, both
// goals and constraints from binding to loose, the default solver returns
// exactly the exact solver's plan — configuration, both predictions and
// the number of calibration rounds — or fails the same way.
func TestAutoPlansWhatCSPPlans(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(4100 + seed))
		params, opts := randomInstance(rng)
		for _, goal := range []Goal{MinTimeUnderBudget, MinCostUnderDeadline} {
			// f = 0 is a constraint nothing meets (set below), f in (0, 1)
			// binds, f > 1 binds nothing.
			for _, f := range []float64{0, rng.Float64(), rng.Float64(), 1.5} {
				obj := bindingObjective(t, params, opts, goal, f)
				if f == 0 {
					obj.Budget, obj.Deadline = 1e-12, time.Nanosecond
				}
				want, werr := instancePlanner(params, opts, CSP).Plan(obj)
				got, gerr := instancePlanner(params, opts, Auto).Plan(obj)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("seed %d %v f=%.3f: Auto err %v, CSP err %v", seed, goal, f, gerr, werr)
				}
				if werr != nil || f == 0 {
					if !errors.Is(gerr, ErrNoFeasiblePlan) || !errors.Is(werr, ErrNoFeasiblePlan) {
						t.Fatalf("seed %d %v f=%.3f: errors %v / %v do not wrap ErrNoFeasiblePlan", seed, goal, f, gerr, werr)
					}
					continue
				}
				if !samePlan(got, want) || got.Search.CalibrationRounds != want.Search.CalibrationRounds {
					t.Fatalf("seed %d %v f=%.3f: Auto %v (%d rounds) != CSP %v (%d rounds)", seed, goal, f,
						got.Summary(), got.Search.CalibrationRounds, want.Summary(), want.Search.CalibrationRounds)
				}
				if st := got.Search; st.DijkstraRuns != 1 || st.Alg1Rounds != 0 {
					t.Fatalf("seed %d %v f=%.3f: Auto ran %d Dijkstra, %d Algorithm 1 rounds over %d calibration rounds, want 1 and 0",
						seed, goal, f, st.DijkstraRuns, st.Alg1Rounds, st.CalibrationRounds)
				}
			}
		}
	}
}

// TestAutoPathIsTheCSPPath: on the instance's own DAG and for one and the
// same side budget, across budgets from infeasible to loose, the default
// solver finds a path exactly when unbounded label-setting does, with the
// same objective, inside the budget. (That this objective is never worse
// than Algorithm 1's is a property of the graph search:
// graph.TestExactNeverWorseThanAlgorithm1.)
func TestAutoPathIsTheCSPPath(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(4200 + seed))
		params, opts := randomInstance(rng)
		for _, mode := range []dag.Mode{dag.MinimizeTime, dag.MinimizeCost} {
			d, err := dag.BuildContext(ctx, model.NewPaper(params), mode, opts)
			if err != nil {
				t.Fatal(err)
			}
			cheapest, err := d.G.ShortestPath(d.Src, d.Dst)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := d.ToGoBounds(ctx).SideToGo[d.Src], cheapest.Side
			var free graph.Path
			for trial := 0; trial < 6; trial++ {
				budget := lo + (hi-lo)*(rng.Float64()*1.2-0.1)
				got, gerr := autoSolve(ctx, d, budget, &free)
				want, werr := d.G.ConstrainedShortestPathCtx(ctx, d.Src, d.Dst, budget)
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("seed %d %v budget %v: Auto err %v, CSP err %v", seed, mode, budget, gerr, werr)
				}
				if werr != nil {
					continue
				}
				// Equal objective, not equal nodes: two configurations can
				// tie in W to the last bit (the cost tiebreak is 1e-7 of
				// a sum of seconds), and the two label orders may settle
				// either one first.
				if got.W != want.W || got.Side > budget {
					t.Fatalf("seed %d %v budget %v: Auto path %+v, CSP path %+v", seed, mode, budget, got, want)
				}
			}
		}
	}
}

// TestAutoLooseConstraintIsOneDijkstra: when the constraint does not bind
// the default solver's plan is Algorithm 1's (its first round, found by
// the same Dijkstra on the same graph) and costs exactly that one search:
// no label-setting, no edge removal, no to-go bounds.
func TestAutoLooseConstraintIsOneDijkstra(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(4300 + seed))
		params, opts := randomInstance(rng)
		for _, obj := range []Objective{unconstrainedTime(), unconstrainedCost()} {
			auto := instancePlanner(params, opts, Auto)
			got, err := auto.Plan(obj)
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
			if st := got.Search; st.DijkstraRuns != 1 || st.CSPLabelsPopped != 0 || st.Alg1Rounds != 0 || st.EdgesRelaxed == 0 {
				t.Fatalf("seed %d %v: loose Auto plan did more than one Dijkstra: %+v", seed, obj.Goal, st)
			}
			if n := len(auto.Tel.Snapshot().SpansUnder("plan/togo-bounds")); n != 0 {
				t.Fatalf("seed %d %v: loose Auto plan built to-go bounds %d time(s)", seed, obj.Goal, n)
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
// context fires — before the build, between the Dijkstra and the
// label-setting, inside a calibration round — the planner returns
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
// no Algorithm 1 round, one Dijkstra per plan however many calibration
// rounds it takes, label-setting on every cell, and a plan whose
// objective is the exact solver's on each of the 32 (geometric-mean
// ratio exactly 1).
func TestBindingCellsCounters(t *testing.T) {
	tc := NewTemplateCache(0)
	cache := model.NewPredictionCache()
	plan := func(params model.Params, s Solver, obj Objective) *Plan {
		pl := instancePlanner(params, dag.Options{}, s)
		pl.Templates, pl.Cache = tc, cache
		p, err := pl.Plan(obj)
		if err != nil {
			t.Fatalf("%s/%d %v %v: %v", params.Job.Profile.Name, params.Job.NumObjects, s, obj, err)
		}
		return p
	}
	logRatio, labels := 0.0, int64(0)
	for si, sh := range bindingShapes {
		prof, err := workload.ByName(sh.workload)
		if err != nil {
			t.Fatal(err)
		}
		params := model.DefaultParams(workload.Job{Profile: prof, NumObjects: sh.objects, ObjectSize: 64 << 20})
		lo := plan(params, Auto, Objective{Goal: MinCostUnderDeadline, Deadline: 100 * time.Hour}).Exact.TotalCost()
		hi := plan(params, Auto, Objective{Goal: MinTimeUnderBudget, Budget: 10}).Exact.TotalCost()
		if !(hi > lo && lo > 0) {
			t.Fatalf("%s/%d: cost range [%v, %v] leaves no room for a binding budget", sh.workload, sh.objects, lo, hi)
		}
		for _, f := range bindingFractions[si] {
			obj := Objective{Goal: MinTimeUnderBudget, Budget: lo + pricing.USD(f*float64(hi-lo))}
			auto, exact := plan(params, Auto, obj), plan(params, CSP, obj)
			st := auto.Search
			if st.Alg1Rounds != 0 || st.DijkstraRuns != 1 || st.CSPLabelsPopped == 0 {
				t.Errorf("%s/%d f=%v: %d Algorithm 1 rounds, %d Dijkstra runs, %d labels popped over %d calibration rounds; want 0, 1, > 0",
					sh.workload, sh.objects, f, st.Alg1Rounds, st.DijkstraRuns, st.CSPLabelsPopped, st.CalibrationRounds)
			}
			if auto.Config != exact.Config {
				t.Errorf("%s/%d f=%v: Auto %v, CSP %v", sh.workload, sh.objects, f, auto.Config, exact.Config)
			}
			logRatio += math.Log(auto.Exact.TotalSec() / exact.Exact.TotalSec())
			labels += st.CSPLabelsPopped
		}
	}
	if logRatio != 0 {
		t.Errorf("geometric-mean objective ratio to CSP = %v, want exactly 1", math.Exp(logRatio/32))
	}
	t.Logf("%.0f labels popped per binding plan", float64(labels)/32)
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
					if _, err := SweepFrontier(context.Background(), FrontierSpec{
						Params: params, DAG: opts, Size: 8, Parallelism: 1, Cache: cache, Templates: tc, Tel: reg,
					}); err != nil {
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
				if plan.Search.CSPLabelsPopped == 0 {
					t.Errorf("plan %d did not bind: %+v", i, plan.Search)
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
