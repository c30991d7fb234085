package optimizer

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"astra/internal/model"
	"astra/internal/telemetry"
	"astra/internal/workload"
)

// TestTelemetryDoesNotPerturbPlans is the observe-only guarantee:
// attaching a registry must leave every solver's plan bit-identical,
// serial and parallel alike.
func TestTelemetryDoesNotPerturbPlans(t *testing.T) {
	objectives := []Objective{
		unconstrainedTime(),
		{Goal: MinTimeUnderBudget, Budget: 0.002},
		{Goal: MinCostUnderDeadline, Deadline: 2 * time.Minute},
	}
	for _, s := range []Solver{Algorithm1, Brute, Auto} {
		for oi, obj := range objectives {
			bare := planner(s)
			bare.Parallelism = 1
			want, werr := bare.Plan(obj)

			for _, workers := range []int{1, 4} {
				pl := planner(s)
				pl.Parallelism = workers
				pl.Tel = telemetry.New()
				got, gerr := pl.Plan(obj)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("solver %v obj %d workers %d: err %v vs bare %v",
						s, oi, workers, gerr, werr)
				}
				if werr != nil {
					continue
				}
				if got.Config != want.Config {
					t.Fatalf("solver %v obj %d workers %d: telemetry changed the plan: %v vs %v",
						s, oi, workers, got.Config, want.Config)
				}
				if got.Exact.JCT() != want.Exact.JCT() || got.Exact.TotalCost() != want.Exact.TotalCost() ||
					got.Paper.JCT() != want.Paper.JCT() || got.Paper.TotalCost() != want.Paper.TotalCost() {
					t.Fatalf("solver %v obj %d workers %d: telemetry changed predictions",
						s, oi, workers)
				}
			}
		}
	}
}

// TestSearchStatsWithRegistry checks that a plan carried out under a
// registry reports its search counters and leaves spans behind.
func TestSearchStatsWithRegistry(t *testing.T) {
	reg := telemetry.New()
	pl := planner(Auto)
	pl.Tel = reg
	plan, err := pl.Plan(unconstrainedTime())
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Search
	if !st.Telemetry {
		t.Fatal("SearchStats.Telemetry = false with a registry attached")
	}
	if st.Solver != Auto || st.Wall <= 0 {
		t.Fatalf("solver/wall = %v/%v", st.Solver, st.Wall)
	}
	if st.DAGBuilds < 1 || st.DAGNodes == 0 || st.DAGEdges == 0 {
		t.Fatalf("DAG stats empty: %+v", st)
	}
	if st.CSPLabelsPopped == 0 || st.EdgesRelaxed == 0 {
		t.Fatalf("no shortest-path work recorded: %+v", st)
	}
	if st.CacheMisses == 0 {
		t.Fatalf("cold plan reported no model evaluations: %+v", st)
	}
	if st.ConfigsEvaluated() != st.CacheMisses {
		t.Fatalf("ConfigsEvaluated = %d, want %d", st.ConfigsEvaluated(), st.CacheMisses)
	}

	snap := reg.Snapshot()
	if n := len(snap.SpansUnder("plan")); n == 0 {
		t.Fatal("no plan spans recorded")
	}
	if snap.Counter(telemetry.MPlanSolves) != 1 {
		t.Fatalf("plan solves = %d, want 1", snap.Counter(telemetry.MPlanSolves))
	}
}

// TestSearchStatsWithoutRegistry: the always-available fields (wall
// time, calibration, cache traffic) still populate, with Telemetry
// false so "zero" is distinguishable from "not measured".
func TestSearchStatsWithoutRegistry(t *testing.T) {
	plan, err := planner(Auto).Plan(unconstrainedTime())
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Search
	if st.Telemetry {
		t.Fatal("Telemetry = true without a registry")
	}
	if st.Wall <= 0 || st.CacheMisses == 0 {
		t.Fatalf("always-available stats missing: %+v", st)
	}
	if st.DAGBuilds != 0 || st.CSPLabelsPopped != 0 {
		t.Fatalf("counter fields populated without a registry: %+v", st)
	}
}

func TestExplainReport(t *testing.T) {
	pl := planner(Auto)
	pl.Tel = telemetry.New()
	plan, err := pl.Plan(unconstrainedTime())
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Explain()
	for _, want := range []string{
		"execution plan", "config:", "solver:", "predicted (exact)",
		"predicted (paper)", "search", "wall time:", "configs evaluated:",
		"prediction cache:", "dag:", "dijkstra:", "pool:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "counters:           disabled") {
		t.Fatalf("explain reports counters disabled despite registry:\n%s", out)
	}

	// Without a registry the report must say the counters are absent
	// rather than print zeros as if measured.
	bare, err := planner(Auto).Plan(unconstrainedTime())
	if err != nil {
		t.Fatal(err)
	}
	if out := bare.Explain(); !strings.Contains(out, "disabled") {
		t.Fatalf("bare explain should flag disabled counters:\n%s", out)
	}
}

// TestPlanSnapshotDeltasAreScoped: two consecutive plans on one planner
// must each report only their own search's cache traffic, not the
// registry's running totals.
func TestPlanSnapshotDeltasAreScoped(t *testing.T) {
	pl := planner(Auto)
	pl.Tel = telemetry.New()
	first, err := pl.Plan(unconstrainedTime())
	if err != nil {
		t.Fatal(err)
	}
	second, err := pl.Plan(unconstrainedTime())
	if err != nil {
		t.Fatal(err)
	}
	// The second plan reuses the memoized DAG and warm cache: it must not
	// re-report the first search's misses.
	if second.Search.CacheMisses >= first.Search.CacheMisses {
		t.Fatalf("second search misses %d not below first %d — deltas unscoped?",
			second.Search.CacheMisses, first.Search.CacheMisses)
	}
	if second.Search.DAGBuilds != 0 {
		t.Fatalf("second search rebuilt the DAG %d times, want 0 (memoized)",
			second.Search.DAGBuilds)
	}
}

// searchBooks is the part of SearchStats that is a pure function of the
// plan and its caches' warmth — what must not change with company.
type searchBooks struct {
	DAGBuilds, DAGNodes, DijkstraRuns, EdgesRelaxed, CSPLabelsPopped, CacheHits, CacheMisses int64
}

func booksOf(st SearchStats) searchBooks {
	return searchBooks{st.DAGBuilds, st.DAGNodes, st.DijkstraRuns, st.EdgesRelaxed, st.CSPLabelsPopped, st.CacheHits, st.CacheMisses}
}

// TestConcurrentPlansKeepTheirOwnBooks: two cold plans of different
// shapes sharing one registry, started together, must each report
// exactly what the same plan reports alone — not the neighbour's
// Dijkstra runs, DAG build or cache traffic — and the registry must hold
// the sum of the two.
func TestConcurrentPlansKeepTheirOwnBooks(t *testing.T) {
	free, err := planner(Auto).Plan(unconstrainedTime())
	if err != nil {
		t.Fatal(err)
	}
	objs := [2]Objective{
		unconstrainedTime(),
		{Goal: MinTimeUnderBudget, Budget: free.Exact.TotalCost() * 9 / 10}, // binds: label-setting runs
	}
	fresh := func(i int, reg *telemetry.Registry) *Planner {
		pl := planner(Auto)
		pl.Parallelism = 1
		pl.Tel = reg
		if i == 0 {
			pl.Params.Job.NumObjects = 16
		}
		return pl
	}
	var alone [2]searchBooks
	for i := range alone {
		plan, err := fresh(i, telemetry.New()).Plan(objs[i])
		if err != nil {
			t.Fatalf("plan %d alone: %v", i, err)
		}
		alone[i] = booksOf(plan.Search)
	}
	if alone[0] == alone[1] || alone[0].EdgesRelaxed == 0 || alone[1].CSPLabelsPopped == 0 || alone[0].DAGBuilds == 0 {
		t.Fatalf("the two plans should do different, non-trivial work: %+v", alone)
	}

	const rounds = 50
	reg := telemetry.New()
	for r := 0; r < rounds; r++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range alone {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				pl := fresh(i, reg)
				<-start
				plan, err := pl.Plan(objs[i])
				if err != nil {
					t.Errorf("round %d plan %d: %v", r, i, err)
					return
				}
				if got := booksOf(plan.Search); got != alone[i] {
					t.Errorf("round %d plan %d reports %+v in company, %+v alone", r, i, got, alone[i])
				}
			}(i)
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
	for name, each := range map[string][2]int64{
		telemetry.MPlanSolves:         {1, 1},
		telemetry.MDAGBuilds:          {alone[0].DAGBuilds, alone[1].DAGBuilds},
		telemetry.MSearchDijkstraRuns: {alone[0].DijkstraRuns, alone[1].DijkstraRuns},
		telemetry.MSearchEdgesRelaxed: {alone[0].EdgesRelaxed, alone[1].EdgesRelaxed},
		telemetry.MCSPLabelsPopped:    {alone[0].CSPLabelsPopped, alone[1].CSPLabelsPopped},
		telemetry.MPredCacheHits:      {alone[0].CacheHits, alone[1].CacheHits},
		telemetry.MPredCacheMisses:    {alone[0].CacheMisses, alone[1].CacheMisses},
	} {
		if got, want := reg.Counter(name).Value(), rounds*(each[0]+each[1]); got != want {
			t.Errorf("%s = %d after %d rounds, want %d", name, got, rounds, want)
		}
	}
}

// TestWarmPlanAllocatesLittle is the deterministic side of "planning
// costs next to nothing": a warm plan on a registry whose span buffer is
// at its cap — the long-running server's state — must not allocate in
// proportion to the registry. Bracketing each plan with two registry
// snapshots cost 1.33 MB per plan here.
func TestWarmPlanAllocatesLittle(t *testing.T) {
	reg := telemetry.New()
	for i := 0; i < telemetry.DefaultSpanCap; i++ {
		reg.StartSpan("filler").End()
	}
	pl := New(model.DefaultParams(workload.WordCount10GB()))
	pl.Solver = Auto
	pl.Parallelism = 1
	pl.Tel = reg
	obj := Objective{Goal: MinTimeUnderBudget, Budget: 1}
	if _, err := pl.Plan(obj); err != nil {
		t.Fatal(err)
	}
	const plans = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < plans; i++ {
		if _, err := pl.Plan(obj); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perPlan := (after.TotalAlloc - before.TotalAlloc) / plans
	t.Logf("a warm plan allocates %d bytes", perPlan)
	if perPlan >= 64<<10 {
		t.Fatalf("a warm plan allocates %d bytes, want < 64 KB", perPlan)
	}
}
