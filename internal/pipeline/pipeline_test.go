package pipeline

import (
	"context"
	"testing"
	"time"

	"astra/internal/mapreduce"
	"astra/internal/model"
	"astra/internal/optimizer"
	"astra/internal/pricing"
	"astra/internal/workload"
)

// logAnalytics is the canonical two-stage pipeline: grep-filter the logs,
// then word-count the matches.
func logAnalytics() Pipeline {
	return Pipeline{
		Stages: []Stage{
			{Name: "filter", Profile: workload.Grep},
			{Name: "aggregate", Profile: workload.WordCount},
		},
		InputObjects: 16,
		InputBytes:   16 * (64 << 20),
	}
}

func templParams() model.Params {
	return model.DefaultParams(workload.WordCount1GB()) // Job is overwritten per stage
}

func TestValidate(t *testing.T) {
	if err := (Pipeline{}).Validate(); err == nil {
		t.Fatal("empty pipeline should fail")
	}
	p := logAnalytics()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.InputObjects = 0
	if err := p.Validate(); err == nil {
		t.Fatal("zero input should fail")
	}
	bad := logAnalytics()
	bad.Stages[0].Profile = workload.Profile{Name: "x"}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid profile should fail")
	}
}

func TestOutputOfChainsShapes(t *testing.T) {
	in := stageIO{objects: 16, bytes: 16 << 20}
	cfg := mapreduce.Config{MapperMemMB: 1024, CoordMemMB: 1024, ReducerMemMB: 1024, ObjsPerMapper: 2, ObjsPerReducer: 4}
	out, err := outputOf(workload.Grep, in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Grep: 8 mappers, single step, ceil(8/4)=2 reducers -> 2 objects.
	if out.objects != 2 {
		t.Fatalf("out.objects = %d, want 2", out.objects)
	}
	wantBytes := int64(float64(in.bytes) * 0.08 * 1.0)
	if out.bytes != wantBytes {
		t.Fatalf("out.bytes = %d, want %d", out.bytes, wantBytes)
	}
}

func TestPlanUnconstrainedAndExecute(t *testing.T) {
	p := logAnalytics()
	pl := NewPlanner(templParams())
	plan, err := pl.Plan(p, optimizer.Objective{Goal: optimizer.MinTimeUnderBudget, Budget: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Stages) != 2 {
		t.Fatalf("%d stage plans", len(plan.Stages))
	}
	if plan.TotalSec <= 0 || plan.TotalCost <= 0 {
		t.Fatalf("degenerate plan: %+v", plan)
	}
	// Execute and compare against the prediction.
	res, err := Execute(templParams(), p, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) != 2 {
		t.Fatalf("%d stage reports", len(res.Stages))
	}
	rel := (res.JCT.Seconds() - plan.TotalSec) / plan.TotalSec
	if rel < -0.02 || rel > 0.02 {
		t.Fatalf("measured %.2fs vs predicted %.2fs", res.JCT.Seconds(), plan.TotalSec)
	}
	relCost := float64(res.Cost.Total()-plan.TotalCost) / float64(plan.TotalCost)
	if relCost < -0.02 || relCost > 0.02 {
		t.Fatalf("measured cost %v vs predicted %v", res.Cost.Total(), plan.TotalCost)
	}
}

// TestStageSweepsShareOneTemplateCache: with no Templates set, the
// planner makes one template cache on first use and every stage sweep
// goes through it, so planning the same pipeline again builds no DAG.
func TestStageSweepsShareOneTemplateCache(t *testing.T) {
	pl := NewPlanner(templParams())
	obj := optimizer.Objective{Goal: optimizer.MinTimeUnderBudget, Budget: 1e9}
	if _, err := pl.Plan(logAnalytics(), obj); err != nil {
		t.Fatal(err)
	}
	if pl.Templates == nil {
		t.Fatal("stage sweeps left the planner without a template cache")
	}
	first := pl.Templates.Stats()
	if first.Builds == 0 {
		t.Fatalf("no stage DAG built: %+v", first)
	}
	if _, err := pl.Plan(logAnalytics(), obj); err != nil {
		t.Fatal(err)
	}
	if again := pl.Templates.Stats(); again.Builds != first.Builds || again.Hits <= first.Hits {
		t.Fatalf("replanning rebuilt stage DAGs: first %+v, again %+v", first, again)
	}
}

func TestBudgetAllocatedAcrossStages(t *testing.T) {
	p := logAnalytics()
	pl := NewPlanner(templParams())
	free, err := pl.Plan(p, optimizer.Objective{Goal: optimizer.MinTimeUnderBudget, Budget: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	cheap, err := pl.Plan(p, optimizer.Objective{Goal: optimizer.MinCostUnderDeadline, Deadline: 1e6 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if cheap.TotalCost >= free.TotalCost {
		t.Fatalf("cheapest composite %v should undercut fastest %v", cheap.TotalCost, free.TotalCost)
	}
	// A budget between the extremes must be honored and interpolate time.
	budget := (free.TotalCost + cheap.TotalCost) / 2
	mid, err := pl.Plan(p, optimizer.Objective{Goal: optimizer.MinTimeUnderBudget, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if mid.TotalCost > budget {
		t.Fatalf("composite cost %v exceeds budget %v", mid.TotalCost, budget)
	}
	if mid.TotalSec < free.TotalSec-1e-9 {
		t.Fatal("budgeted composite cannot be faster than the unconstrained optimum")
	}
	if mid.TotalSec > cheap.TotalSec+1e-9 {
		t.Fatal("budgeted composite should not be slower than the cheapest plan")
	}
}

func TestDeadlineHonoredEndToEnd(t *testing.T) {
	p := logAnalytics()
	pl := NewPlanner(templParams())
	free, err := pl.Plan(p, optimizer.Objective{Goal: optimizer.MinTimeUnderBudget, Budget: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Duration(free.TotalSec*1.5) * time.Second
	plan, err := pl.Plan(p, optimizer.Objective{Goal: optimizer.MinCostUnderDeadline, Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(templParams(), p, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.JCT > deadline {
		t.Fatalf("measured %v violates the %v deadline", res.JCT, deadline)
	}
}

func TestInfeasibleObjective(t *testing.T) {
	p := logAnalytics()
	pl := NewPlanner(templParams())
	if _, err := pl.Plan(p, optimizer.Objective{Goal: optimizer.MinTimeUnderBudget, Budget: pricing.USD(1e-12)}); err == nil {
		t.Fatal("impossible budget should fail")
	}
	if _, err := pl.Plan(p, optimizer.Objective{Goal: optimizer.MinCostUnderDeadline, Deadline: time.Nanosecond}); err == nil {
		t.Fatal("impossible deadline should fail")
	}
}

func TestThreeStagePipeline(t *testing.T) {
	p := Pipeline{
		Stages: []Stage{
			{Name: "filter", Profile: workload.Grep},
			{Name: "sessionize", Profile: workload.Query},
			{Name: "count", Profile: workload.WordCount},
		},
		InputObjects: 12,
		InputBytes:   12 * (32 << 20),
	}
	pl := NewPlanner(templParams())
	pl.FrontierSize = 10
	plan, err := pl.Plan(p, optimizer.Objective{Goal: optimizer.MinTimeUnderBudget, Budget: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(templParams(), p, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) != 3 {
		t.Fatalf("%d stages executed", len(res.Stages))
	}
	rel := (res.JCT.Seconds() - plan.TotalSec) / plan.TotalSec
	if rel < -0.02 || rel > 0.02 {
		t.Fatalf("measured %.2fs vs predicted %.2fs", res.JCT.Seconds(), plan.TotalSec)
	}
}

func TestExecuteRejectsMismatchedPlan(t *testing.T) {
	p := logAnalytics()
	if _, err := Execute(templParams(), p, &Plan{}); err == nil {
		t.Fatal("plan/pipeline stage mismatch should fail")
	}
}

func TestParetoFrontProperties(t *testing.T) {
	p := logAnalytics()
	pl := NewPlanner(templParams())
	front, err := pl.stageFrontier(context.Background(), workload.Grep, stageIO{objects: 16, bytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty frontier")
	}
	for i, a := range front {
		for j, b := range front {
			if i == j {
				continue
			}
			if b.Pred.TotalSec() <= a.Pred.TotalSec() && b.Pred.TotalCost() <= a.Pred.TotalCost() &&
				(b.Pred.TotalSec() < a.Pred.TotalSec() || b.Pred.TotalCost() < a.Pred.TotalCost()) {
				t.Fatalf("frontier contains dominated candidate %v", a.Config)
			}
		}
	}
	_ = p
}
