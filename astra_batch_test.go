package astra

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"astra/internal/optimizer"
	"astra/internal/telemetry"
)

// TestPlanBatchMatchesIndividualPlans asserts batch planning through the
// shared caches returns, index-aligned, exactly the plans individual
// private-cache Plan calls return for the same requests.
func TestPlanBatchMatchesIndividualPlans(t *testing.T) {
	reqs := []BatchRequest{
		{Job: WordCount1GB(), Objective: MinTime(0.01)},
		{Job: Sort100GB(), Objective: MinTime(1)},
		{Job: WordCount1GB(), Objective: MinTime(0.01)}, // repeat: template hit
		{Job: Query25GB(), Objective: MinTime(0.25)},
		{Job: WordCount10GB(), Objective: MinTime(0.05)},
	}
	results, err := PlanBatch(context.Background(), reqs, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(results), len(reqs))
	}
	for i, req := range reqs {
		if results[i].Err != nil {
			t.Fatalf("request %d failed: %v", i, results[i].Err)
		}
		want, err := Plan(req.Job, req.Objective, WithPrivateCaches(), WithParallelism(1))
		if err != nil {
			t.Fatalf("reference plan %d: %v", i, err)
		}
		got, ref := *results[i].Plan, *want
		got.Search, ref.Search = optimizer.SearchStats{}, optimizer.SearchStats{}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("batch plan %d diverges from individual plan:\nbatch: %+v\nsolo:  %+v", i, got, ref)
		}
	}
}

// TestPlanBatchPerRequestErrors asserts an infeasible request fails alone:
// its slot carries the error, the rest of the batch still plans, and the
// telemetry counters split plans from errors.
func TestPlanBatchPerRequestErrors(t *testing.T) {
	tel := NewTelemetry()
	reqs := []BatchRequest{
		{Job: WordCount1GB(), Objective: MinTime(0.01)},
		{Job: WordCount1GB(), Objective: MinTime(0.0000001)}, // unsatisfiable budget
		{Job: Query25GB(), Objective: MinTime(0.25)},
	}
	results, err := PlanBatch(context.Background(), reqs, WithTelemetry(tel), WithPrivateCaches())
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("feasible requests failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("unsatisfiable request did not fail")
	}
	if !errors.Is(results[1].Err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", results[1].Err)
	}
	if got := tel.Counter(telemetry.MBatchPlans).Value(); got != 2 {
		t.Errorf("MBatchPlans = %d, want 2", got)
	}
	if got := tel.Counter(telemetry.MBatchErrors).Value(); got != 1 {
		t.Errorf("MBatchErrors = %d, want 1", got)
	}
}

// TestPlanBatchPublishesCacheMetrics asserts a batch through explicit
// shared caches surfaces template and prediction traffic on the registry
// under the astra_plan_template_* / astra_predcache_* names.
func TestPlanBatchPublishesCacheMetrics(t *testing.T) {
	tel := NewTelemetry()
	tc, pc := NewTemplateCache(0), NewPlanCache()
	reqs := make([]BatchRequest, 6)
	for i := range reqs {
		reqs[i] = BatchRequest{Job: WordCount1GB(), Objective: MinTime(0.01)}
	}
	if _, err := PlanBatch(context.Background(), reqs,
		WithTemplateCache(tc), WithPlanCache(pc), WithTelemetry(tel)); err != nil {
		t.Fatal(err)
	}
	hits := tel.Counter(telemetry.MPlanTemplateHits).Value()
	builds := tel.Counter(telemetry.MPlanTemplateBuilds).Value()
	if hits == 0 || builds == 0 {
		t.Fatalf("expected template traffic on the registry, got hits=%d builds=%d", hits, builds)
	}
	// Nothing is evicted from a fresh cache, so every build is resident.
	if entries := tel.Gauge(telemetry.MPlanTemplateEntries).Value(); entries != builds {
		t.Fatalf("registry counts %d builds but %d resident templates", builds, entries)
	}
	if tel.Counter(telemetry.MPredCacheHits).Value() == 0 {
		t.Error("expected prediction-cache hits on the registry")
	}
}

// TestSharedCachesAreDefault asserts plain Plan calls join the
// process-wide caches (second identical plan is a template hit) and that
// WithPrivateCaches opts out (the shared cache does not see its build).
func TestSharedCachesAreDefault(t *testing.T) {
	// A shape no other test plans, so the shared cache starts without it.
	job := WordCount10GB()
	job.NumObjects += 7
	plan := func(opts ...PlanOption) (builds, hits int64) {
		t.Helper()
		tel := NewTelemetry()
		if _, err := Plan(job, MinTime(0.05), append(opts, WithTelemetry(tel))...); err != nil {
			t.Fatal(err)
		}
		return tel.Counter(telemetry.MPlanTemplateBuilds).Value(), tel.Counter(telemetry.MPlanTemplateHits).Value()
	}
	if builds, _ := plan(WithPrivateCaches()); builds == 0 {
		t.Fatal("a plan on private caches built no template")
	}
	if builds, _ := plan(); builds == 0 {
		t.Fatal("the first default Plan found the private plan's template in the shared cache")
	}
	if builds, hits := plan(); builds != 0 || hits == 0 {
		t.Fatalf("repeated identical Plan built %d templates and hit %d; want a shared-cache hit", builds, hits)
	}
}
