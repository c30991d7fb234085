package optimizer

import (
	"errors"
	"math"
	"testing"
	"time"

	"astra/internal/dag"
	"astra/internal/model"
	"astra/internal/pricing"
	"astra/internal/workload"
)

func smallParams() model.Params {
	return model.DefaultParams(workload.Job{
		Profile:    workload.WordCount,
		NumObjects: 10,
		ObjectSize: 8 << 20,
	})
}

var smallTiers = []int{128, 512, 1024, 1536, 3008}

func planner(s Solver) *Planner {
	pl := New(smallParams())
	pl.Solver = s
	pl.DAGOptions = dag.Options{Tiers: smallTiers}
	return pl
}

// unconstrained returns an objective so loose every plan is feasible.
func unconstrainedTime() Objective {
	return Objective{Goal: MinTimeUnderBudget, Budget: 1e9}
}

func unconstrainedCost() Objective {
	return Objective{Goal: MinCostUnderDeadline, Deadline: 1e6 * time.Hour}
}

func TestAllSolversProduceValidPlans(t *testing.T) {
	for _, s := range []Solver{Algorithm1, Auto, Brute} {
		pl := planner(s)
		plan, err := pl.Plan(unconstrainedTime())
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		cfg := plan.Config
		if !pl.Params.Sheet.Lambda.ValidMemory(cfg.MapperMemMB) {
			t.Errorf("%v: bad mapper memory %d", s, cfg.MapperMemMB)
		}
		if cfg.ObjsPerMapper < 1 || cfg.ObjsPerMapper > 10 {
			t.Errorf("%v: bad kM %d", s, cfg.ObjsPerMapper)
		}
		if plan.Exact.TotalSec() <= 0 || plan.Exact.TotalCost() <= 0 {
			t.Errorf("%v: degenerate prediction %+v", s, plan.Exact)
		}
	}
}

func TestUnconstrainedTimePlanPicksFastMemory(t *testing.T) {
	plan, err := planner(Brute).Plan(unconstrainedTime())
	if err != nil {
		t.Fatal(err)
	}
	// With no budget, the fastest plan uses memory at or above the speed
	// floor for the heavy phases.
	if plan.Config.MapperMemMB < 1536 {
		t.Errorf("unconstrained fastest plan picked mapper memory %d", plan.Config.MapperMemMB)
	}
}

func TestUnconstrainedCostPlanPicksSmallMemory(t *testing.T) {
	plan, err := planner(Brute).Plan(unconstrainedCost())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Config.MapperMemMB != 128 {
		t.Errorf("cheapest plan picked mapper memory %d, want 128", plan.Config.MapperMemMB)
	}
}

func TestBudgetBindsPlanCost(t *testing.T) {
	// A budget halfway between the cheapest and the unconstrained fastest
	// plan's cost: the new plan must respect it (under the exact model for
	// Brute).
	free, err := planner(Brute).Plan(unconstrainedTime())
	if err != nil {
		t.Fatal(err)
	}
	cheapest, err := planner(Brute).Plan(unconstrainedCost())
	if err != nil {
		t.Fatal(err)
	}
	budget := (cheapest.Exact.TotalCost() + free.Exact.TotalCost()) / 2
	tight, err := planner(Brute).Plan(Objective{Goal: MinTimeUnderBudget, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Exact.TotalCost() > budget {
		t.Fatalf("plan cost %v exceeds budget %v", tight.Exact.TotalCost(), budget)
	}
	if tight.Exact.TotalSec() < free.Exact.TotalSec()-1e-9 {
		t.Fatal("constrained plan cannot be faster than unconstrained optimum")
	}
}

func TestDeadlineBindsPlanTime(t *testing.T) {
	cheapest, err := planner(Brute).Plan(unconstrainedCost())
	if err != nil {
		t.Fatal(err)
	}
	deadline := cheapest.Exact.JCT() / 2
	tight, err := planner(Brute).Plan(Objective{Goal: MinCostUnderDeadline, Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Exact.JCT() > deadline {
		t.Fatalf("plan JCT %v exceeds deadline %v", tight.Exact.JCT(), deadline)
	}
	if tight.Exact.TotalCost() < cheapest.Exact.TotalCost()-1e-12 {
		t.Fatal("constrained plan cannot be cheaper than unconstrained optimum")
	}
}

func TestInfeasibleObjectives(t *testing.T) {
	for _, s := range []Solver{Algorithm1, Auto, Brute} {
		pl := planner(s)
		if _, err := pl.Plan(Objective{Goal: MinTimeUnderBudget, Budget: 1e-12}); !errors.Is(err, ErrNoFeasiblePlan) {
			t.Errorf("%v: err = %v, want ErrNoFeasiblePlan", s, err)
		}
		if _, err := pl.Plan(Objective{Goal: MinCostUnderDeadline, Deadline: time.Nanosecond}); !errors.Is(err, ErrNoFeasiblePlan) {
			t.Errorf("%v: deadline err = %v, want ErrNoFeasiblePlan", s, err)
		}
	}
}

// TestSolverOptimalityOrdering: without a binding constraint the DAG
// shortest path is the DAG-model optimum; the exact-model optimum (Brute)
// must be at least as good under the exact model, and the default
// solver's plan must be DAG-optimal.
func TestSolverOptimalityOrdering(t *testing.T) {
	obj := unconstrainedTime()
	auto, err := planner(Auto).Plan(obj)
	if err != nil {
		t.Fatal(err)
	}
	alg1, err := planner(Algorithm1).Plan(obj)
	if err != nil {
		t.Fatal(err)
	}
	brute, err := planner(Brute).Plan(obj)
	if err != nil {
		t.Fatal(err)
	}
	// Unconstrained, Algorithm 1 and the label-setting both return the
	// plain shortest path, so they agree on the paper-model objective.
	if math.Abs(auto.Paper.TotalSec()-alg1.Paper.TotalSec()) > 1e-9 {
		t.Errorf("label-setting %v and Algorithm1 %v disagree unconstrained",
			auto.Paper.TotalSec(), alg1.Paper.TotalSec())
	}
	// Brute optimizes the exact model, so under the exact model it is the
	// best of the three.
	if brute.Exact.TotalSec() > auto.Exact.TotalSec()+1e-9 {
		t.Errorf("brute %v slower than auto %v under the exact model",
			brute.Exact.TotalSec(), auto.Exact.TotalSec())
	}
}

func TestCSPAndAutoSolveTightDeadline(t *testing.T) {
	// A deadline between the cheapest and fastest plans' times: the
	// default solver ("csp" on the wire) must find a plan that makes it.
	fastest, err := planner(Brute).Plan(unconstrainedTime())
	if err != nil {
		t.Fatal(err)
	}
	cheapest, err := planner(Brute).Plan(unconstrainedCost())
	if err != nil {
		t.Fatal(err)
	}
	deadline := (fastest.Exact.JCT() + cheapest.Exact.JCT()) / 2
	s, err := ParseSolver("csp")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner(s).Plan(Objective{Goal: MinCostUnderDeadline, Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	// The constraint is enforced against the paper model used in the
	// DAG; verify it there.
	if plan.Paper.JCT() > deadline+time.Millisecond {
		t.Fatalf("paper-model JCT %v exceeds deadline %v", plan.Paper.JCT(), deadline)
	}
}

func TestBruteWorkLimitGuard(t *testing.T) {
	pl := New(model.DefaultParams(workload.Query25GB()))
	pl.Solver = Brute // 202 objects x full tier set: way over the limit
	if _, err := pl.Plan(unconstrainedTime()); err == nil {
		t.Fatal("expected the work-limit guard to fire")
	}
}

func TestBaselineShapes(t *testing.T) {
	b1, b2, b3 := Baseline1(10), Baseline2(10), Baseline3(10)
	if b1.MapperMemMB != 1536 || b1.ObjsPerMapper != 1 || b1.ObjsPerReducer != 2 {
		t.Fatalf("baseline1 = %+v", b1)
	}
	if b2.MapperMemMB != 128 || b2.ReducerMemMB != 128 {
		t.Fatalf("baseline2 = %+v", b2)
	}
	// Baseline 3: 10 mappers -> kR = 5 -> step 1 has 2 reducers, step 2
	// has 1.
	if b3.ObjsPerReducer != 5 || b3.MapperMemMB != 128 || b3.ReducerMemMB != 1536 {
		t.Fatalf("baseline3 = %+v", b3)
	}
	if len(Baselines(10)) != 3 || len(BaselineNames) != 3 {
		t.Fatal("baseline set changed")
	}
}

func TestAstraBeatsBaselinesOnTime(t *testing.T) {
	// The headline property behind Fig. 7: given a budget equal to the
	// most expensive baseline's cost, Astra's plan is at least as fast as
	// every baseline.
	params := smallParams()
	exact := model.NewExact(params)
	var worstCost pricing.USD
	var bestBaselineTime float64 = math.Inf(1)
	for _, cfg := range Baselines(params.Job.NumObjects) {
		pred, err := exact.Predict(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if pred.TotalCost() > worstCost {
			worstCost = pred.TotalCost()
		}
		if pred.TotalSec() < bestBaselineTime {
			bestBaselineTime = pred.TotalSec()
		}
	}
	pl := planner(Brute)
	plan, err := pl.Plan(Objective{Goal: MinTimeUnderBudget, Budget: worstCost})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Exact.TotalSec() > bestBaselineTime+1e-9 {
		t.Fatalf("Astra %vs slower than best baseline %vs under the baselines' budget",
			plan.Exact.TotalSec(), bestBaselineTime)
	}
}

func TestGoalAndSolverStrings(t *testing.T) {
	if MinTimeUnderBudget.String() == "" || MinCostUnderDeadline.String() == "" {
		t.Fatal("goal names empty")
	}
	for _, s := range []Solver{Algorithm1, Brute, Auto} {
		if s.String() == "" {
			t.Fatal("solver name empty")
		}
	}
}

// TestParseSolver pins the one name table flags, spec files and the
// wire schema all parse through: "csp" is a second name for the default.
// Brute has no name there, and neither "yen" nor "rerank" names a
// solver.
func TestParseSolver(t *testing.T) {
	cases := map[string]Solver{
		"": Auto, "auto": Auto, "algorithm1": Algorithm1, "alg1": Algorithm1,
		"csp": Auto, "CSP": Auto,
	}
	for name, want := range cases {
		got, err := ParseSolver(name)
		if err != nil || got != want {
			t.Errorf("ParseSolver(%q) = %v, %v", name, got, err)
		}
	}
	for _, name := range []string{"nope", "brute", "Brute", "yen", "rerank"} {
		if _, err := ParseSolver(name); err == nil {
			t.Errorf("ParseSolver(%q) should fail", name)
		}
	}
}

func TestPlanSummary(t *testing.T) {
	plan, err := planner(Algorithm1).Plan(unconstrainedTime())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Summary() == "" {
		t.Fatal("empty summary")
	}
}
