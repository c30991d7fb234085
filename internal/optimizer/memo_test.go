package optimizer

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"astra/internal/dag"
	"astra/internal/model"
	"astra/internal/pricing"
	"astra/internal/telemetry"
	"astra/internal/workload"
)

// TestPlansShareCertifiedOptima: binding plans at several deadlines and
// frontier sweeps, run at once on one cost-mode template, return exactly
// what each returns alone on a template of its own, and a second round
// of the plans on the now-primed template answers every one of their
// searches from its certified optima while the sweeps search the same
// graph. Run under -race, it checks that the memo is shared safely.
func TestPlansShareCertifiedOptima(t *testing.T) {
	params, opts := queryParams(), dag.Options{Tiers: smallTiers}
	fractions := []float64{0.2, 0.4, 0.6, 0.8}
	objs := make([]Objective, len(fractions))
	for i, f := range fractions {
		objs[i] = bindingObjective(t, params, opts, MinCostUnderDeadline, f)
	}
	plan := func(tc *TemplateCache, reg *telemetry.Registry, obj Objective) *Plan {
		pl := instancePlanner(params, opts, Auto)
		pl.Templates, pl.Tel = tc, reg
		p, err := pl.Plan(obj)
		if err != nil {
			t.Error(err)
			return nil
		}
		return p
	}
	sweep := func(tc *TemplateCache, reg *telemetry.Registry) *FrontierResult {
		pl := &Planner{Params: params, DAGOptions: opts, Parallelism: 2, Templates: tc, Tel: reg}
		res, err := pl.Frontier(context.Background(), 8, nil)
		if err != nil {
			t.Error(err)
			return nil
		}
		return res
	}
	wantPlans := make([]*Plan, len(objs))
	for i, obj := range objs {
		wantPlans[i] = plan(NewTemplateCache(0), telemetry.New(), obj)
	}
	wantSweep := sweep(NewTemplateCache(0), telemetry.New())

	shared := NewTemplateCache(0)
	round := func() (plans *telemetry.Registry) {
		plans = telemetry.New()
		var wg sync.WaitGroup
		for i := range objs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if got := plan(shared, plans, objs[i]); got != nil && !samePlan(got, wantPlans[i]) {
					t.Errorf("deadline %v: shared template planned %v, its own %v", objs[i].Deadline, got.Summary(), wantPlans[i].Summary())
				}
			}(i)
		}
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := sweep(shared, telemetry.New()); got != nil && !reflect.DeepEqual(got.Points, wantSweep.Points) {
					t.Errorf("shared template swept %d points, its own %d", len(got.Points), len(wantSweep.Points))
				}
			}()
		}
		wg.Wait()
		return plans
	}
	round()
	hot := round()
	solves := hot.Counter(telemetry.MPlanSolves).Value() + hot.Counter(telemetry.MPlanCalibrations).Value()
	if popped, hits := hot.Counter(telemetry.MCSPLabelsPopped).Value(), hot.Counter(telemetry.MCSPMemoHits).Value(); popped != 0 || hits != solves {
		t.Fatalf("second round of plans popped %d labels over %d memo hits; want 0 and %d", popped, hits, solves)
	}
}

// BenchmarkRepeatBindingPlan plans the benchmark's 32 binding_constraint
// cells round robin on primed templates: every shape built, its bounds
// computed and each cell planned once before the timer starts, as on a
// warm planning service. labels/op is what a repeat plan pops
// (astra_csp_labels_popped_total), memo-hits/op the searches its
// template's certified optima answered (astra_csp_memo_hits_total); the
// search a first-time binding plan runs is ConstrainedSPQuery207 in
// internal/graph.
func BenchmarkRepeatBindingPlan(b *testing.B) {
	tc, cache := NewTemplateCache(0), model.NewPredictionCache()
	reg := telemetry.New()
	var planners []*Planner
	var objs []Objective
	for si, sh := range bindingShapes {
		prof, err := workload.ByName(sh.workload)
		if err != nil {
			b.Fatal(err)
		}
		params := model.DefaultParams(workload.Job{Profile: prof, NumObjects: sh.objects, ObjectSize: 64 << 20})
		pl := New(params)
		pl.Solver, pl.Parallelism, pl.Templates, pl.Cache, pl.Tel = Auto, 1, tc, cache, reg
		lo, err := pl.Plan(Objective{Goal: MinCostUnderDeadline, Deadline: 100 * time.Hour})
		if err != nil {
			b.Fatal(err)
		}
		hi, err := pl.Plan(Objective{Goal: MinTimeUnderBudget, Budget: 10})
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range bindingFractions[si] {
			obj := Objective{Goal: MinTimeUnderBudget, Budget: lo.Exact.TotalCost() + pricing.USD(f*float64(hi.Exact.TotalCost()-lo.Exact.TotalCost()))}
			if _, err := pl.Plan(obj); err != nil {
				b.Fatal(err)
			}
			planners, objs = append(planners, pl), append(objs, obj)
		}
	}
	popped, hits := reg.Counter(telemetry.MCSPLabelsPopped), reg.Counter(telemetry.MCSPMemoHits)
	popped0, hits0 := popped.Value(), hits.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(objs)
		if _, err := planners[k].Plan(objs[k]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(popped.Value()-popped0)/float64(b.N), "labels/op")
	b.ReportMetric(float64(hits.Value()-hits0)/float64(b.N), "memo-hits/op")
}
