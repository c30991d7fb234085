package optimizer

import (
	"context"
	"errors"
	"testing"
	"time"

	"astra/internal/dag"
	"astra/internal/model"
)

func TestObjectiveValidate(t *testing.T) {
	cases := []struct {
		name string
		obj  Objective
		ok   bool
	}{
		{"zero budget", Objective{Goal: MinTimeUnderBudget, Budget: 0}, true},
		{"positive budget", Objective{Goal: MinTimeUnderBudget, Budget: 1}, true},
		{"negative budget", Objective{Goal: MinTimeUnderBudget, Budget: -0.01}, false},
		{"positive deadline", Objective{Goal: MinCostUnderDeadline, Deadline: time.Minute}, true},
		{"zero deadline", Objective{Goal: MinCostUnderDeadline, Deadline: 0}, false},
		{"negative deadline", Objective{Goal: MinCostUnderDeadline, Deadline: -time.Second}, false},
		{"unknown goal", Objective{Goal: Goal(99)}, false},
	}
	for _, tc := range cases {
		err := tc.obj.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrInvalidObjective) {
			t.Errorf("%s: err = %v, want ErrInvalidObjective", tc.name, err)
		}
	}
}

func TestPlanRejectsInvalidObjective(t *testing.T) {
	pl := planner(Auto)
	if _, err := pl.Plan(Objective{Goal: MinTimeUnderBudget, Budget: -1}); !errors.Is(err, ErrInvalidObjective) {
		t.Fatalf("negative budget: err = %v, want ErrInvalidObjective", err)
	}
	if _, err := pl.Plan(Objective{Goal: MinCostUnderDeadline}); !errors.Is(err, ErrInvalidObjective) {
		t.Fatalf("zero deadline: err = %v, want ErrInvalidObjective", err)
	}
}

// TestParallelPlansMatchSerial is the engine's core guarantee: for every
// solver and objective, the parallel search returns the bit-identical
// configuration the serial search does.
func TestParallelPlansMatchSerial(t *testing.T) {
	objectives := []Objective{
		unconstrainedTime(),
		unconstrainedCost(),
		{Goal: MinTimeUnderBudget, Budget: 0.002},
		{Goal: MinCostUnderDeadline, Deadline: 2 * time.Minute},
	}
	solvers := []Solver{Algorithm1, Brute, Auto}
	for _, s := range solvers {
		for oi, obj := range objectives {
			serial := planner(s)
			serial.Parallelism = 1
			want, werr := serial.Plan(obj)

			for _, workers := range []int{0, 4} {
				par := planner(s)
				par.Parallelism = workers
				got, gerr := par.Plan(obj)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("solver %v obj %d workers %d: err %v vs serial %v",
						s, oi, workers, gerr, werr)
				}
				if werr != nil {
					if !errors.Is(gerr, ErrNoFeasiblePlan) || !errors.Is(werr, ErrNoFeasiblePlan) {
						t.Fatalf("solver %v obj %d: unexpected errors %v / %v", s, oi, gerr, werr)
					}
					continue
				}
				if got.Config != want.Config {
					t.Fatalf("solver %v obj %d workers %d: config %v, serial %v",
						s, oi, workers, got.Config, want.Config)
				}
			}
		}
	}
}

func TestPlanContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range []Solver{Algorithm1, Brute, Auto} {
		pl := planner(s)
		if _, err := pl.PlanContext(ctx, unconstrainedTime()); !errors.Is(err, context.Canceled) {
			t.Fatalf("solver %v: err = %v, want context.Canceled", s, err)
		}
	}
}

// TestPlannerMemoization verifies that repeated plans on one Planner reuse
// the DAG build and the prediction cache instead of recomputing.
func TestPlannerMemoization(t *testing.T) {
	pl := planner(Auto)
	if _, err := pl.Plan(unconstrainedTime()); err != nil {
		t.Fatal(err)
	}
	if pl.Cache == nil {
		t.Fatal("no prediction cache materialized")
	}
	_, missesAfterFirst := pl.Cache.Stats()
	d1, err := pl.buildDAG(context.Background(), dag.MinimizeTime)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Plan(unconstrainedTime()); err != nil {
		t.Fatal(err)
	}
	d2, err := pl.buildDAG(context.Background(), dag.MinimizeTime)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("DAG rebuilt despite memoization")
	}
	hits, misses := pl.Cache.Stats()
	if misses != missesAfterFirst {
		t.Fatalf("second plan recomputed predictions: misses %d -> %d", missesAfterFirst, misses)
	}
	if hits == 0 {
		t.Fatal("second plan never hit the prediction cache")
	}
}

// TestSharedCacheAcrossPlanners exercises WithPlanCache's contract: two
// planners over the same parameterization share memoized predictions.
func TestSharedCacheAcrossPlanners(t *testing.T) {
	cache := model.NewPredictionCache()
	a := planner(Brute)
	a.Cache = cache
	if _, err := a.Plan(unconstrainedTime()); err != nil {
		t.Fatal(err)
	}
	_, missesAfterA := cache.Stats()

	b := planner(Brute)
	b.Cache = cache
	if _, err := b.Plan(unconstrainedTime()); err != nil {
		t.Fatal(err)
	}
	if _, misses := cache.Stats(); misses != missesAfterA {
		t.Fatalf("second planner recomputed predictions: misses %d -> %d", missesAfterA, misses)
	}
}

func TestPlanContextDeadlinePropagates(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	pl := planner(Auto)
	if _, err := pl.PlanContext(ctx, unconstrainedCost()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
