package optimizer

import (
	"fmt"
	"strings"
	"time"

	"astra/internal/telemetry"
)

// SearchStats describes how one PlanContext call found its plan, from
// that call's own books: its tally of the prediction cache and its scope
// of the planner's registry, so the numbers are exact however many plans
// share the cache and the registry concurrently. The cache, calibration
// and DAG-size fields are always populated; the counter fields (DAG
// builds, solver rounds, relaxations, pool activity) require a telemetry
// registry on the Planner and are zero — with Telemetry false — without
// one.
type SearchStats struct {
	// Solver is the strategy that produced the plan.
	Solver Solver
	// Wall is the end-to-end planning time, calibration included.
	Wall time.Duration
	// Telemetry reports whether the counter fields below were measured
	// (a registry was attached) or are merely absent.
	Telemetry bool
	// CalibrationRounds counts constraint-tightening re-solves beyond
	// the first pass (0: the first solution already held under the
	// exact model).
	CalibrationRounds int64

	// Prediction-cache traffic attributable to this search. Misses are
	// fresh model evaluations, so CacheMisses is also the number of
	// distinct (predictor, Config) evaluations this search paid for.
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64

	// DAG construction: builds this search triggered (0 when memoized
	// builds were reused) and the size of the graph it searched.
	DAGBuilds int64
	DAGNodes  int64
	DAGEdges  int64

	// Shortest-path work across all solver passes.
	DijkstraRuns     int64
	EdgesRelaxed     int64
	Alg1Rounds       int64
	Alg1EdgesDropped int64
	CSPLabelsPopped  int64
	// CSPMemoHits counts constrained searches answered from the
	// template's certified optima without popping a label.
	CSPMemoHits int64

	// Search-memory recycling: pooled scratch reuses (vs fresh
	// allocations) and constrained-search labels drawn from the arena.
	ScratchReuse       int64
	CSPLabelsAllocated int64

	// Worker-pool activity: batches submitted, total tasks, and the
	// peak concurrently-busy workers observed.
	PoolBatches     int64
	PoolTasks       int64
	PoolWorkersPeak int64
}

// fillCounters populates the counter fields from what one plan's
// telemetry scope booked (see telemetry.Registry.Scope).
func (st *SearchStats) fillCounters(booked func(name string) int64) {
	st.Telemetry = true
	st.DAGBuilds = booked(telemetry.MDAGBuilds)
	st.DijkstraRuns = booked(telemetry.MSearchDijkstraRuns)
	st.EdgesRelaxed = booked(telemetry.MSearchEdgesRelaxed)
	st.Alg1Rounds = booked(telemetry.MAlg1Rounds)
	st.Alg1EdgesDropped = booked(telemetry.MAlg1EdgesRemoved)
	st.CSPLabelsPopped = booked(telemetry.MCSPLabelsPopped)
	st.CSPMemoHits = booked(telemetry.MCSPMemoHits)
	st.ScratchReuse = booked(telemetry.MSearchScratchReuse)
	st.CSPLabelsAllocated = booked(telemetry.MCSPLabelsAllocated)
	st.PoolBatches = booked(telemetry.MPoolBatches)
	st.PoolTasks = booked(telemetry.MPoolTasks)
	st.PoolWorkersPeak = booked(telemetry.MPoolWorkersPeak)
}

// ConfigsEvaluated is the number of fresh model evaluations the search
// paid for (cache misses; hits were free).
func (st SearchStats) ConfigsEvaluated() int64 { return st.CacheMisses }

// CacheHitRate is hits/(hits+misses), 0 when the cache was untouched.
func (st SearchStats) CacheHitRate() float64 {
	total := st.CacheHits + st.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(st.CacheHits) / float64(total)
}

// Explain renders a human-readable plan report: the chosen
// configuration, both model predictions, and how the search found it.
// It is the optimizer-side analogue of a database EXPLAIN.
func (p Plan) Explain() string {
	var b strings.Builder
	line := func(format string, args ...any) {
		fmt.Fprintf(&b, format+"\n", args...)
	}
	line("execution plan")
	line("  config:             %s", p.Config)
	switch p.Objective.Goal {
	case MinCostUnderDeadline:
		line("  objective:          %s (deadline %v)", p.Objective.Goal, p.Objective.Deadline)
	default:
		line("  objective:          %s (budget %v)", p.Objective.Goal, p.Objective.Budget)
	}
	line("  solver:             %s", p.Solver)
	line("  predicted (exact):  JCT %v, cost %v",
		p.Exact.JCT().Round(time.Millisecond), p.Exact.TotalCost())
	line("  predicted (paper):  JCT %v, cost %v",
		p.Paper.JCT().Round(time.Millisecond), p.Paper.TotalCost())
	st := p.Search
	line("search")
	line("  wall time:          %v", st.Wall.Round(time.Microsecond))
	line("  calibration rounds: %d", st.CalibrationRounds)
	line("  configs evaluated:  %d", st.ConfigsEvaluated())
	line("  prediction cache:   %d hits / %d misses / %d evictions (%.1f%% hit rate)",
		st.CacheHits, st.CacheMisses, st.CacheEvictions, 100*st.CacheHitRate())
	if !st.Telemetry {
		line("  counters:           disabled (attach a telemetry registry for search counters)")
		return b.String()
	}
	line("  dag:                %d build(s), %d nodes, %d edges", st.DAGBuilds, st.DAGNodes, st.DAGEdges)
	line("  dijkstra:           %d run(s), %d edges relaxed", st.DijkstraRuns, st.EdgesRelaxed)
	if st.Alg1Rounds > 0 {
		line("  algorithm1:         %d round(s), %d edge(s) removed", st.Alg1Rounds, st.Alg1EdgesDropped)
	}
	if st.CSPLabelsPopped > 0 {
		line("  csp:                %d label(s) popped, %d allocated from arena", st.CSPLabelsPopped, st.CSPLabelsAllocated)
	}
	if st.CSPMemoHits > 0 {
		line("  csp memo:           %d search(es) answered by a certified optimum", st.CSPMemoHits)
	}
	line("  scratch reuse:      %d pooled search buffer(s) recycled", st.ScratchReuse)
	line("  pool:               %d batch(es), %d task(s), peak %d worker(s)",
		st.PoolBatches, st.PoolTasks, st.PoolWorkersPeak)
	return b.String()
}
