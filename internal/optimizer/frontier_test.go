package optimizer

import (
	"context"
	"testing"
	"time"

	"astra/internal/dag"
	"astra/internal/model"
	"astra/internal/workload"
)

// sweepPoints runs a background-context sweep of size k and returns its points.
func sweepPoints(params model.Params, k int, opts dag.Options) ([]FrontierPoint, error) {
	res, err := SweepFrontier(context.Background(), FrontierSpec{Params: params, Size: k, DAG: opts})
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
	pl := planner(CSP)
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
