package optimizer

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"

	"astra/internal/dag"
	"astra/internal/mapreduce"
	"astra/internal/model"
	"astra/internal/pricing"
	"astra/internal/workload"
)

// sweepPoints runs a background-context sweep of size k and returns its points.
func sweepPoints(params model.Params, k int, opts dag.Options) ([]FrontierPoint, error) {
	res, err := (&Planner{Params: params, DAGOptions: opts}).Frontier(context.Background(), k, nil)
	if err != nil {
		return nil, err
	}
	return res.Points, nil
}

func TestFrontierCoversConstrainedPlans(t *testing.T) {
	front, err := sweepPoints(smallParams(), 16, dag.Options{Tiers: smallTiers})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) < 2 {
		t.Fatalf("frontier has %d points", len(front))
	}
	// The fast end must match the unconstrained fastest DAG plan; the
	// cheap end must match the unconstrained cheapest.
	pl := planner(Auto)
	fastest, err := pl.Plan(Objective{Goal: MinTimeUnderBudget, Budget: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	cheapest, err := pl.Plan(Objective{Goal: MinCostUnderDeadline, Deadline: 1e6 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if front[0].Pred.TotalSec() > fastest.Exact.TotalSec()+1e-9 {
		t.Fatalf("fast end %v slower than the fastest plan %v",
			front[0].Pred.TotalSec(), fastest.Exact.TotalSec())
	}
	last := front[len(front)-1]
	if last.Pred.TotalCost() > cheapest.Exact.TotalCost()+1e-12 {
		t.Fatalf("cheap end %v pricier than the cheapest plan %v",
			last.Pred.TotalCost(), cheapest.Exact.TotalCost())
	}
}

func TestFrontierNoDominatedPoints(t *testing.T) {
	front, err := sweepPoints(smallParams(), 12, dag.Options{Tiers: smallTiers})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range front {
		for j, b := range front {
			if i == j {
				continue
			}
			if b.Pred.TotalSec() <= a.Pred.TotalSec() &&
				b.Pred.TotalCost() <= a.Pred.TotalCost() &&
				(b.Pred.TotalSec() < a.Pred.TotalSec() || b.Pred.TotalCost() < a.Pred.TotalCost()) {
				t.Fatalf("point %d dominated by %d", i, j)
			}
		}
	}
}

func TestFrontierDefaultK(t *testing.T) {
	front, err := sweepPoints(smallParams(), 0, dag.Options{Tiers: smallTiers})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty frontier with default k")
	}
}

func TestFrontierRejectsBadParams(t *testing.T) {
	if _, err := sweepPoints(model.Params{}, 8, dag.Options{}); err == nil {
		t.Fatal("invalid params should fail")
	}
}

func TestAggregateModelPlanning(t *testing.T) {
	// The planner flag must actually change the DAG's weights, and the
	// literal Eq. 9 model — blind to within-step parallelism — must never
	// produce a plan that executes faster (under the engine-faithful
	// model) than the per-step default's.
	params := model.DefaultParams(workload.Job{
		Profile:    workload.Query,
		NumObjects: 24,
		ObjectSize: 48 << 20,
	})
	plan := func(aggregate bool) *Plan {
		p := New(params)
		p.Solver = Auto
		p.AggregateModel = aggregate
		pl, err := p.Plan(Objective{Goal: MinTimeUnderBudget, Budget: 1e9})
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	perStep, aggregate := plan(false), plan(true)
	if perStep.Config == aggregate.Config {
		t.Fatal("the AggregateModel flag changed nothing")
	}
	// On this small instance both picks land within DAG-estimator noise
	// of each other; the substantial quality gap appears at paper scale
	// (ablation A3b). Here we only require the aggregate pick not to be
	// meaningfully better — that would mean the per-step model is wrong.
	if aggregate.Exact.TotalSec() < perStep.Exact.TotalSec()*0.99 {
		t.Fatalf("aggregate-planned config (%.2fs) substantially beat the per-step one (%.2fs)",
			aggregate.Exact.TotalSec(), perStep.Exact.TotalSec())
	}
}

// paretoPruneAllPairs is the definition paretoPrune implements, written
// the slow way: drop every candidate some other candidate dominates,
// order the rest (time, cost, configuration) and keep the first of each
// configuration.
func paretoPruneAllPairs(cands []FrontierPoint) []FrontierPoint {
	var front []FrontierPoint
	for i, a := range cands {
		dominated := false
		for j, b := range cands {
			if i != j && b.Pred.TotalSec() <= a.Pred.TotalSec() && b.Pred.TotalCost() <= a.Pred.TotalCost() &&
				(b.Pred.TotalSec() < a.Pred.TotalSec() || b.Pred.TotalCost() < a.Pred.TotalCost()) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, a)
		}
	}
	sort.SliceStable(front, func(i, j int) bool {
		a, b := front[i], front[j]
		if a.Pred.TotalSec() != b.Pred.TotalSec() {
			return a.Pred.TotalSec() < b.Pred.TotalSec()
		}
		if a.Pred.TotalCost() != b.Pred.TotalCost() {
			return a.Pred.TotalCost() < b.Pred.TotalCost()
		}
		return configLess(a.Config, b.Config)
	})
	seen := map[mapreduce.Config]bool{}
	out := front[:0]
	for _, p := range front {
		if !seen[p.Config] {
			seen[p.Config] = true
			out = append(out, p)
		}
	}
	return out
}

// TestParetoPruneMatchesAllPairs checks the index-sorted prune against
// the all-pairs definition on seeded candidates drawn from a small grid,
// so equal times, equal (time, cost) pairs and repeated configurations
// all occur, and pins what a prune allocates: the index and the result.
func TestParetoPruneMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 300; trial++ {
		cands := make([]FrontierPoint, 1+rng.Intn(40))
		for i := range cands {
			if i > 0 && rng.Intn(5) == 0 {
				cands[i] = cands[rng.Intn(i)] // a repeated configuration
				continue
			}
			cfg := mapreduce.Config{MapperMemMB: 128 << rng.Intn(3), ObjsPerMapper: 1 + rng.Intn(3), ObjsPerReducer: i}
			cands[i] = FrontierPoint{Config: cfg, Pred: model.Prediction{
				Config: cfg, MapSec: float64(1 + rng.Intn(6)), LambdaCost: pricing.USD(1 + rng.Intn(6)),
			}}
		}
		got, want := paretoPrune(cands), paretoPruneAllPairs(cands)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d points, all-pairs keeps %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Config != want[i].Config || got[i].Pred.TotalSec() != want[i].Pred.TotalSec() ||
				got[i].Pred.TotalCost() != want[i].Pred.TotalCost() {
				t.Fatalf("trial %d point %d: %+v, all-pairs has %+v", trial, i, got[i], want[i])
			}
		}
	}
	if paretoPrune(nil) != nil {
		t.Fatal("pruning nothing returned a frontier")
	}
	cands := make([]FrontierPoint, 60)
	for i := range cands {
		cands[i] = FrontierPoint{Config: mapreduce.Config{ObjsPerReducer: i}, Pred: model.Prediction{
			MapSec: float64(i), LambdaCost: pricing.USD(len(cands) - i),
		}}
	}
	if n := testing.AllocsPerRun(20, func() { paretoPrune(cands) }); n > 2 {
		t.Fatalf("one prune makes %v allocations, want the index and the result", n)
	}
}
