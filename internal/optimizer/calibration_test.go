package optimizer

import (
	"testing"
	"time"

	"astra/internal/dag"
	"astra/internal/model"
	"astra/internal/pricing"
	"astra/internal/workload"
)

// queryParams builds an instance where the DAG's JHat estimators are
// known to be optimistic for kM > 1 plans (scan-heavy profile, enough
// objects that the mapper-count estimate matters).
func queryParams() model.Params {
	return model.DefaultParams(workload.Job{
		Profile:    workload.Query,
		NumObjects: 24,
		ObjectSize: 48 << 20,
	})
}

// TestCalibrationEnforcesDeadlineUnderExactModel: whatever the DAG
// estimators believe, the returned plan must satisfy the user's deadline
// under the engine-faithful model (the calibration loop's contract).
func TestCalibrationEnforcesDeadlineUnderExactModel(t *testing.T) {
	params := queryParams()
	pl := New(params)
	pl.Solver = Brute
	pl.DAGOptions = dag.Options{Tiers: smallTiers}
	fastest, err := pl.Plan(Objective{Goal: MinTimeUnderBudget, Budget: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	cheapest, err := pl.Plan(Objective{Goal: MinCostUnderDeadline, Deadline: 1e6 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// Sweep deadlines across the feasible range; every returned plan must
	// honor its deadline under the exact model.
	lo, hi := fastest.Exact.JCT(), cheapest.Exact.JCT()
	for _, s := range []Solver{Auto, Algorithm1} {
		for frac := 0.1; frac < 1.0; frac += 0.2 {
			deadline := lo + time.Duration(float64(hi-lo)*frac)
			p := New(params)
			p.Solver = s
			p.DAGOptions = dag.Options{Tiers: smallTiers}
			plan, err := p.Plan(Objective{Goal: MinCostUnderDeadline, Deadline: deadline})
			if err != nil {
				continue // a heuristic may declare infeasibility; that is allowed
			}
			if plan.Exact.JCT() > deadline {
				t.Errorf("%v at deadline %v: exact JCT %v violates it",
					s, deadline, plan.Exact.JCT())
			}
		}
	}
}

// TestCalibrationEnforcesBudgetUnderExactModel: same contract for the
// budget objective.
func TestCalibrationEnforcesBudgetUnderExactModel(t *testing.T) {
	params := queryParams()
	pl := New(params)
	pl.Solver = Brute
	pl.DAGOptions = dag.Options{Tiers: smallTiers}
	fastest, err := pl.Plan(Objective{Goal: MinTimeUnderBudget, Budget: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	cheapest, err := pl.Plan(Objective{Goal: MinCostUnderDeadline, Deadline: 1e6 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := float64(cheapest.Exact.TotalCost()), float64(fastest.Exact.TotalCost())
	for frac := 0.1; frac < 1.0; frac += 0.2 {
		budget := pricing.USD(lo + (hi-lo)*frac)
		p := New(params)
		p.Solver = Auto
		p.DAGOptions = dag.Options{Tiers: smallTiers}
		plan, err := p.Plan(Objective{Goal: MinTimeUnderBudget, Budget: budget})
		if err != nil {
			continue
		}
		if plan.Exact.TotalCost() > budget {
			t.Errorf("budget %v: exact cost %v violates it", budget, plan.Exact.TotalCost())
		}
	}
}

// TestCalibrationDoesNotOvertighten: with a loose constraint, calibration
// must not run at all (the first plan already satisfies), so Auto equals
// the plain Algorithm 1 answer.
func TestCalibrationDoesNotOvertighten(t *testing.T) {
	params := queryParams()
	mk := func(s Solver) *Plan {
		p := New(params)
		p.Solver = s
		p.DAGOptions = dag.Options{Tiers: smallTiers}
		plan, err := p.Plan(Objective{Goal: MinTimeUnderBudget, Budget: 1e9})
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	auto, alg1 := mk(Auto), mk(Algorithm1)
	if auto.Config != alg1.Config {
		t.Fatalf("unconstrained Auto %v differs from Algorithm1 %v", auto.Config, alg1.Config)
	}
}
