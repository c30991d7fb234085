package experiments

import (
	"fmt"
	"time"

	"astra/internal/dag"
	"astra/internal/mapreduce"
	"astra/internal/model"
	"astra/internal/optimizer"
	"astra/internal/workload"
)

// ablationJob is small enough for brute force with the full tier set
// restricted to a representative subset.
func ablationJob() workload.Job {
	return workload.Job{Profile: workload.WordCount, NumObjects: 16, ObjectSize: 32 << 20}
}

var ablationTiers = []int{128, 256, 512, 1024, 1536, 1792, 2048, 3008}

// AblationSolvers compares the three solvers on the same constrained
// objective: plan quality (exact-model JCT and cost) and planning time.
func AblationSolvers() (string, error) {
	params := model.DefaultParams(ablationJob())

	// A binding budget: halfway between the cheapest and fastest plans'
	// costs, found with brute force.
	pl := optimizer.New(params)
	pl.Solver = optimizer.Brute
	pl.DAGOptions = dag.Options{Tiers: ablationTiers}
	fastest, err := pl.Plan(optimizer.Objective{Goal: optimizer.MinTimeUnderBudget, Budget: 1e9})
	if err != nil {
		return "", err
	}
	cheapest, err := pl.Plan(optimizer.Objective{Goal: optimizer.MinCostUnderDeadline, Deadline: 1e6 * time.Hour})
	if err != nil {
		return "", err
	}
	budget := (fastest.Exact.TotalCost() + cheapest.Exact.TotalCost()) / 2
	obj := optimizer.Objective{Goal: optimizer.MinTimeUnderBudget, Budget: budget}

	t := &table{header: []string{"solver", "plan JCT", "plan cost", "within budget", "planning time"}}
	for _, s := range []optimizer.Solver{
		optimizer.Algorithm1, optimizer.Auto, optimizer.Brute,
	} {
		p := optimizer.New(params)
		p.Solver = s
		p.DAGOptions = dag.Options{Tiers: ablationTiers}
		start := time.Now()
		plan, err := p.Plan(obj)
		elapsed := time.Since(start)
		if err != nil {
			t.add(s.String(), "-", "-", fmt.Sprintf("error: %v", err), elapsed.Round(time.Millisecond).String())
			continue
		}
		t.add(s.String(), fmtDur(plan.Exact.JCT()), fmtUSD(plan.Exact.TotalCost()),
			fmt.Sprint(plan.Exact.TotalCost() <= budget),
			elapsed.Round(time.Millisecond).String())
	}
	return fmt.Sprintf("budget = %s\n%s", fmtUSD(budget), t.String()), nil
}

// AblationDAG quantifies the Fig. 5 DAG's separability approximation: the
// DAG shortest path (paper model, JHat estimators) versus the exact-model
// optimum, both evaluated by execution, for a compute-heavy and a
// scan-heavy workload.
func AblationDAG() (string, error) {
	jobs := []workload.Job{
		ablationJob(),
		{Profile: workload.Query, NumObjects: 24, ObjectSize: 48 << 20},
	}
	obj := optimizer.Objective{Goal: optimizer.MinTimeUnderBudget, Budget: 1e9}
	t := &table{header: []string{"workload", "planner", "config", "measured JCT", "measured cost"}}
	for _, job := range jobs {
		params := model.DefaultParams(job)
		for _, s := range []optimizer.Solver{optimizer.Algorithm1, optimizer.Brute} {
			p := optimizer.New(params)
			p.Solver = s
			p.DAGOptions = dag.Options{Tiers: ablationTiers}
			plan, err := p.Plan(obj)
			if err != nil {
				return "", err
			}
			rep, err := Execute(params, plan.Config)
			if err != nil {
				return "", err
			}
			name := "paper DAG (Algorithm 1)"
			if s == optimizer.Brute {
				name = "exact enumeration"
			}
			t.add(job.Profile.Name, name, plan.Config.String(), fmtDur(rep.JCT), fmtUSD(rep.Cost.Total()))
		}
	}
	return t.String(), nil
}

// AblationAggregatePlanning shows what planning on the literal Eq. 9
// aggregate model does to real plan quality: blind to within-step
// parallelism, it cannot distinguish one giant reducer from a wide wave,
// and its unconstrained-fastest pick executes measurably slower than the
// per-step model's.
func AblationAggregatePlanning() (string, error) {
	job := workload.Query25GB()
	params := model.DefaultParams(job)
	obj := optimizer.Objective{Goal: optimizer.MinTimeUnderBudget, Budget: 1e9}

	t := &table{header: []string{"planning model", "chosen config", "measured JCT"}}
	for _, aggregate := range []bool{false, true} {
		p := optimizer.New(params)
		p.Solver = optimizer.Auto
		p.AggregateModel = aggregate
		plan, err := p.Plan(obj)
		if err != nil {
			return "", err
		}
		rep, err := Execute(params, plan.Config)
		if err != nil {
			return "", err
		}
		name := "per-step (default)"
		if aggregate {
			name = "Eq. 9 aggregate (literal)"
		}
		t.add(name, plan.Config.String(), fmtDur(rep.JCT))
	}
	return t.String(), nil
}

// AblationReduceModel compares the literal Eq. 9 aggregate reduce-phase
// model (blind to within-step parallelism), the default per-step model,
// and measured execution. The aggregate column's error grows with the
// width of the reduce fan-out it cannot see.
func AblationReduceModel() (string, error) {
	params := model.DefaultParams(ablationJob())
	perStep := model.NewPaper(params)
	aggregate := model.NewPaper(params)
	aggregate.Aggregate = true
	configs := []mapreduce.Config{
		{MapperMemMB: 1024, CoordMemMB: 256, ReducerMemMB: 1024, ObjsPerMapper: 1, ObjsPerReducer: 2},
		{MapperMemMB: 512, CoordMemMB: 512, ReducerMemMB: 512, ObjsPerMapper: 2, ObjsPerReducer: 4},
		{MapperMemMB: 128, CoordMemMB: 128, ReducerMemMB: 128, ObjsPerMapper: 4, ObjsPerReducer: 8},
		{MapperMemMB: 1024, CoordMemMB: 256, ReducerMemMB: 1024, ObjsPerMapper: 1, ObjsPerReducer: 16},
	}
	t := &table{header: []string{"config", "Eq.9 aggregate", "per-step", "measured"}}
	for _, cfg := range configs {
		ap, err := aggregate.Predict(cfg)
		if err != nil {
			return "", err
		}
		pp, err := perStep.Predict(cfg)
		if err != nil {
			return "", err
		}
		rep, err := Execute(params, cfg)
		if err != nil {
			return "", err
		}
		t.add(cfg.String(), fmtDur(ap.JCT()), fmtDur(pp.JCT()), fmtDur(rep.JCT))
	}
	return t.String(), nil
}
