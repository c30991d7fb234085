package optimizer

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"astra/internal/dag"
	"astra/internal/graph"
	"astra/internal/mapreduce"
	"astra/internal/model"
	"astra/internal/parallel"
	"astra/internal/telemetry"
)

// FrontierPoint is one Pareto-optimal configuration: no other candidate
// is both faster and cheaper under the exact model.
type FrontierPoint struct {
	Config mapreduce.Config
	Pred   model.Prediction
}

// FrontierSpec configures one SweepFrontier call. The zero value plus
// Params is a valid spec: default size, private cache, no observer.
type FrontierSpec struct {
	// Params parameterizes the models and the configuration space.
	Params model.Params
	// Size is the target number of frontier points (default 24). It
	// steers how long gap refinement runs; the sweep may return more
	// points when dominance pruning keeps extras for free.
	Size int
	// DAG tunes the configuration graph (tier subset, caps).
	DAG dag.Options
	// Parallelism bounds the worker pool for every phase — the DAG
	// build, the constrained searches and the exact re-evaluations
	// (0 = all cores, 1 = serial); it overrides DAG.Parallelism. The
	// frontier is identical at every setting.
	Parallelism int
	// Cache memoizes model predictions. Left nil, a private cache is
	// created; set it to share one cache across sweeps and planners for
	// the same parameterization.
	Cache *model.PredictionCache
	// Templates resolves the sweep's frozen cost-mode DAG: through a
	// shared cache, repeated sweeps (and pipeline stage sweeps) over the
	// same job shape skip the build entirely. Left nil, a private cache
	// is created. The sweep only ever searches the DAG read-only, so the
	// shared graph is used as-is.
	Templates *TemplateCache
	// Tel, when non-nil, receives phase/search/prune counters and the
	// usual search-engine instrumentation. Observe-only.
	Tel *telemetry.Registry
	// Observer, when non-nil, is called after every phase with the
	// frontier refined so far, and once more with the final result
	// (Final true). Calls are sequential and synchronous: a slow
	// observer slows the sweep, and cancelling the sweep's context from
	// inside the observer aborts it promptly.
	Observer func(FrontierUpdate)
}

// FrontierUpdate is one anytime snapshot of the sweep.
type FrontierUpdate struct {
	// Phase numbers the schedule 1..n: 1 endpoints, 2 coarse midpoints,
	// 3+ gap-bisection rounds. The final update repeats the last phase
	// number with Final set.
	Phase int
	// Points is the frontier refined so far, fastest first. The slice
	// is the observer's to keep; later phases only ever add points that
	// dominate or extend it, never retract a point the final frontier
	// keeps.
	Points []FrontierPoint
	// Final marks the closing update; Points then equals the Points of
	// the returned FrontierResult.
	Final bool
	// Stats is the work so far.
	Stats FrontierStats
}

// FrontierStats describes how a sweep earned its frontier.
type FrontierStats struct {
	// Phases is the number of schedule phases run (bisection rounds
	// included).
	Phases int64
	// Searches counts graph searches executed; Pruned counts searches
	// the admissible bounds and probe algebra skipped outright.
	Searches int64
	Pruned   int64
	// Evaluations is the number of distinct configurations evaluated
	// with the exact model this sweep (cache hits included).
	Evaluations int64
	// CacheHits/CacheMisses are the prediction-cache traffic
	// attributable to this sweep; misses are fresh model evaluations.
	CacheHits   int64
	CacheMisses int64
	// Wall is the elapsed sweep time.
	Wall time.Duration
}

// CacheHitRate is hits/(hits+misses), 0 when the cache was untouched.
func (st FrontierStats) CacheHitRate() float64 {
	total := st.CacheHits + st.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(st.CacheHits) / float64(total)
}

// FrontierResult is a computed Pareto frontier plus its search stats.
type FrontierResult struct {
	// Points is the frontier, fastest first.
	Points []FrontierPoint
	Stats  FrontierStats
}

// deadlineSlack pads a constrained search's budget or cost limit so a
// bound summed in a different association order cannot exclude its own
// optimum by a few ULPs.
const deadlineSlack = 1e-9

// SweepFrontier computes the time/cost Pareto frontier of a job's
// configuration space as an anytime, incremental search. One cost-mode
// DAG is built and frozen up front and every phase searches it
// read-only; one prediction cache carries exact-model evaluations
// across phases (and, via FrontierSpec.Cache, across sweeps). The
// schedule is:
//
//  1. endpoints — the min-cost path (one Dijkstra) and the cheapest
//     plan at the minimum achievable completion time (one constrained
//     search), which bracket the frontier;
//  2. coarse midpoints — constrained searches at evenly interpolated
//     deadlines between the brackets;
//  3. bisection — repeated rounds that split the largest normalized
//     gaps of the frontier-so-far until Size points are on hand,
//     refinement stops making progress, or the round cap is hit.
//
// Every search reads the template's per-node to-go bounds from the
// destination (dag.DAG.ToGoBounds: computed by the first sweep or binding
// plan on the shape, shared after); they prune label expansions
// that cannot meet the deadline or undercut the best known cost, and a
// probe algebra over completed searches skips whole deadlines whose
// optimum is already determined (monotonicity of the constrained
// optimum in the deadline). Skips surface as Stats.Pruned and
// astra_frontier_pruned_total.
//
// Every phase fans its searches and evaluations over the spec's worker
// pool in fixed slot order, so the frontier — and every observer
// snapshot — is identical at every parallelism degree. Cancelling ctx
// aborts the sweep and returns ctx.Err(). When no configuration is
// feasible the error wraps ErrNoFeasiblePlan.
func SweepFrontier(ctx context.Context, spec FrontierSpec) (*FrontierResult, error) {
	if err := spec.Params.Validate(); err != nil {
		return nil, err
	}
	// The whole sweep carries the frontier_sweep pprof phase label; the
	// graph entry points it drives re-label their own regions (dijkstra,
	// csp), so a profile decomposes the sweep into its inner searches.
	var res *FrontierResult
	var err error
	telemetry.DoPhase(ctx, telemetry.PhaseFrontierSweep, func(ctx context.Context) {
		res, err = sweepFrontier(ctx, spec)
	})
	return res, err
}

func sweepFrontier(ctx context.Context, spec FrontierSpec) (*FrontierResult, error) {
	k := spec.Size
	if k <= 0 {
		k = 24
	}
	workers := spec.Parallelism
	dagOpts := spec.DAG
	dagOpts.Parallelism = workers
	tel := spec.Tel
	ctx = telemetry.NewContext(ctx, tel)
	cache := spec.Cache
	if cache == nil {
		cache = model.NewPredictionCache()
	}
	tally := cache.Tally()
	defer flushPredictionTally(tel, tally)
	s := &sweep{
		k:       k,
		workers: workers,
		tel:     tel,
		tally:   tally,
		exact:   tally.Wrap(model.NewExact(spec.Params), spec.Params.Fingerprint(), "exact"),
		observe: spec.Observer,
		sides:   make(map[mapreduce.Config]float64),
		start:   time.Now(),
	}

	// One frozen cost-mode DAG serves the whole sweep: W carries cost
	// (with a time tiebreak), Side carries time, so a deadline-budgeted
	// constrained search returns the cheapest plan at that deadline.
	tc := spec.Templates
	if tc == nil {
		tc = NewTemplateCache(1)
	}
	d, err := tc.Get(ctx, KeyFor(spec.Params, dag.MinimizeCost, dagOpts, false),
		func(ctx context.Context) (*dag.DAG, error) {
			return dag.BuildContext(ctx, model.NewPaper(spec.Params), dag.MinimizeCost, dagOpts)
		})
	if err != nil {
		return nil, err
	}
	s.d = d
	s.bounds = d.ToGoBounds(ctx)
	s.minTime = s.bounds.SideToGo[d.Src]
	if math.IsInf(s.minTime, 1) {
		return nil, fmt.Errorf("%w: configuration graph is disconnected", ErrNoFeasiblePlan)
	}

	// Phase 1: endpoints. The min-cost path needs no constraint — one
	// Dijkstra — and its Side is the slow end of the bracket; the
	// cheapest plan at the minimum achievable time is one constrained
	// search at the fast end.
	cheap, err := d.G.ShortestPathCtx(ctx, d.Src, d.Dst)
	if err != nil {
		return nil, searchErr(ctx, err)
	}
	s.hiTime = cheap.Side
	s.searches++
	s.probes = append(s.probes, probe{deadline: cheap.Side, ok: true, pathW: cheap.W, pathSide: cheap.Side, wLimit: math.Inf(1)})
	if err := s.fold(ctx, []graph.Path{cheap}, []bool{true}); err != nil {
		return nil, err
	}
	if err := s.searchBatch(ctx, []float64{s.minTime * (1 + deadlineSlack)}); err != nil {
		return nil, err
	}
	s.endPhase()

	// Phase 2: coarse midpoints at evenly interpolated deadlines.
	if n := k/2 - 1; n > 0 && s.hiTime > s.minTime {
		dls := make([]float64, 0, n)
		for i := 1; i <= n; i++ {
			dls = append(dls, s.minTime+(s.hiTime-s.minTime)*float64(i)/float64(n+1))
		}
		if err := s.searchBatch(ctx, dls); err != nil {
			return nil, err
		}
	}
	s.endPhase()

	// Phase 3+: bisect the largest gaps of the frontier-so-far until the
	// target size is met or refinement stops paying.
	const maxBisectRounds = 8
	for round := 0; round < maxBisectRounds; round++ {
		front := paretoPrune(s.points)
		if len(front) >= k {
			break
		}
		dls := s.bisectDeadlines(front, k-len(front))
		if len(dls) == 0 {
			break
		}
		before := len(s.sides)
		if err := s.searchBatch(ctx, dls); err != nil {
			return nil, err
		}
		s.endPhase()
		if len(s.sides) == before {
			break
		}
	}

	front := paretoPrune(s.points)
	if len(front) == 0 {
		return nil, fmt.Errorf("%w: no feasible configuration on the frontier", ErrNoFeasiblePlan)
	}
	res := &FrontierResult{Points: front, Stats: s.stats()}
	if s.observe != nil {
		s.observe(FrontierUpdate{
			Phase:  s.phase,
			Points: append([]FrontierPoint(nil), front...),
			Final:  true,
			Stats:  res.Stats,
		})
	}
	return res, nil
}

// probe records one resolved deadline: the constrained optimum found
// there (ok) or the fact that nothing beat wLimit (not ok). Probes are
// the sweep's memory — the monotonicity of the constrained optimum in
// the deadline lets them answer later deadlines without a search.
type probe struct {
	deadline float64
	ok       bool
	pathW    float64
	pathSide float64
	wLimit   float64
}

// sweep is the mutable state of one SweepFrontier call.
type sweep struct {
	k       int
	workers int
	d       *dag.DAG
	bounds  *graph.Bounds
	tel     *telemetry.Registry
	tally   *model.PredictionCache // this sweep's books on the prediction cache
	exact   model.Predictor
	observe func(FrontierUpdate)

	minTime float64
	hiTime  float64

	probes []probe
	// sides maps every decoded configuration to its paper-model path
	// time — the deadline axis — for gap bisection; it doubles as the
	// dedupe set.
	sides  map[mapreduce.Config]float64
	points []FrontierPoint

	phase    int
	searches int64
	pruned   int64
	start    time.Time
}

func (s *sweep) stats() FrontierStats {
	hits, misses := s.tally.Stats()
	return FrontierStats{
		Phases:      int64(s.phase),
		Searches:    s.searches,
		Pruned:      s.pruned,
		Evaluations: int64(len(s.sides)),
		CacheHits:   int64(hits),
		CacheMisses: int64(misses),
		Wall:        time.Since(s.start),
	}
}

// endPhase closes a schedule phase: counts it and emits a snapshot.
func (s *sweep) endPhase() {
	s.phase++
	if s.tel != nil {
		s.tel.Counter(telemetry.MFrontierPhases).Inc()
	}
	if s.observe == nil {
		return
	}
	s.observe(FrontierUpdate{
		Phase:  s.phase,
		Points: paretoPrune(s.points),
		Stats:  s.stats(),
	})
}

// covered reports whether an earlier probe already determines the
// constrained optimum at deadline dl, so searching it would return a
// path (or an infeasibility) the sweep has seen. Two cases:
//
//   - a feasible probe at a deadline ≥ dl whose path already meets dl:
//     that path is feasible at dl and no cheaper path can exist there
//     (the optimum is monotone non-increasing in the deadline);
//   - an infeasible probe at a deadline ≥ dl whose cost limit was at
//     least as permissive as dl's would be: the optimum at dl can only
//     cost more, so dl's search would come back empty too.
func (s *sweep) covered(dl float64) bool {
	if dl < s.minTime {
		return true
	}
	limit := s.wLimitFor(dl)
	for _, p := range s.probes {
		if p.deadline < dl {
			continue
		}
		if p.ok && p.pathSide <= dl {
			return true
		}
		if !p.ok && p.wLimit >= limit {
			return true
		}
	}
	return false
}

// wLimitFor is the tightest valid cost ceiling for a search at deadline
// dl: any feasible probe at a deadline ≤ dl is feasible here too, so
// dl's optimum cannot cost more than the cheapest of them (padded for
// summation-order FP noise).
func (s *sweep) wLimitFor(dl float64) float64 {
	limit := math.Inf(1)
	for _, p := range s.probes {
		if p.ok && p.deadline <= dl && p.pathW < limit {
			limit = p.pathW
		}
	}
	if !math.IsInf(limit, 1) {
		limit *= 1 + deadlineSlack
	}
	return limit
}

// searchBatch resolves a phase's deadlines: prunes the ones earlier
// probes already answer, fans the rest over the pool as bounded
// constrained searches, and folds the results — probes, decoded
// configurations, exact evaluations — in fixed slot order so the
// outcome is independent of the pool size. Prune decisions use only
// pre-batch probes, which keeps them deterministic too.
func (s *sweep) searchBatch(ctx context.Context, deadlines []float64) error {
	type job struct{ dl, wLimit float64 }
	jobs := make([]job, 0, len(deadlines))
	for _, dl := range deadlines {
		if s.covered(dl) {
			s.pruned++
			continue
		}
		jobs = append(jobs, job{dl: dl, wLimit: s.wLimitFor(dl)})
	}
	if s.tel != nil {
		s.tel.Counter(telemetry.MFrontierPruned).Add(int64(len(deadlines) - len(jobs)))
		s.tel.Counter(telemetry.MFrontierSearches).Add(int64(len(jobs)))
	}
	if len(jobs) == 0 {
		return ctx.Err()
	}
	paths := make([]graph.Path, len(jobs))
	ok := make([]bool, len(jobs))
	if err := parallel.ForEach(ctx, len(jobs), s.workers, func(i int) {
		p, err := s.d.G.ConstrainedShortestPathBoundedCtx(ctx, s.d.Src, s.d.Dst, jobs[i].dl, s.bounds, jobs[i].wLimit)
		if err != nil {
			return
		}
		paths[i], ok[i] = p, true
	}); err != nil {
		return err
	}
	s.searches += int64(len(jobs))
	for i := range jobs {
		pr := probe{deadline: jobs[i].dl, ok: ok[i], wLimit: jobs[i].wLimit}
		if ok[i] {
			pr.pathW, pr.pathSide = paths[i].W, paths[i].Side
		}
		s.probes = append(s.probes, pr)
	}
	return s.fold(ctx, paths, ok)
}

// fold decodes a batch's paths, dedupes configurations against the
// sweep so far, and evaluates the new ones with the exact model across
// the pool (input order fixed ⇒ deterministic points slice).
func (s *sweep) fold(ctx context.Context, paths []graph.Path, ok []bool) error {
	var cfgs []mapreduce.Config
	for i, p := range paths {
		if !ok[i] {
			continue
		}
		cfg, err := s.d.Decode(p)
		if err != nil {
			continue
		}
		if _, dup := s.sides[cfg]; dup {
			continue
		}
		s.sides[cfg] = p.Side
		cfgs = append(cfgs, cfg)
	}
	if len(cfgs) == 0 {
		return ctx.Err()
	}
	pts := make([]*FrontierPoint, len(cfgs))
	if err := parallel.ForEach(ctx, len(cfgs), s.workers, func(i int) {
		pred, err := s.exact.Predict(cfgs[i])
		if err != nil {
			return
		}
		pts[i] = &FrontierPoint{Config: cfgs[i], Pred: pred}
	}); err != nil {
		return err
	}
	for _, p := range pts {
		if p != nil {
			s.points = append(s.points, *p)
		}
	}
	return nil
}

// bisectDeadlines proposes up to maxNew fresh deadlines by splitting
// the largest gaps between adjacent frontier points, measured in
// normalized exact (time, cost) space and bisected on the paper-model
// deadline axis (each point's recorded path time). Deadlines earlier
// probes already resolve are dropped rather than proposed.
func (s *sweep) bisectDeadlines(front []FrontierPoint, maxNew int) []float64 {
	if len(front) < 2 || maxNew <= 0 {
		return nil
	}
	tSpan := front[len(front)-1].Pred.TotalSec() - front[0].Pred.TotalSec()
	cSpan := float64(front[0].Pred.TotalCost()) - float64(front[len(front)-1].Pred.TotalCost())
	if tSpan <= 0 {
		tSpan = 1
	}
	if cSpan <= 0 {
		cSpan = 1
	}
	type gap struct {
		size float64
		i    int
	}
	gaps := make([]gap, 0, len(front)-1)
	for i := 0; i+1 < len(front); i++ {
		dt := (front[i+1].Pred.TotalSec() - front[i].Pred.TotalSec()) / tSpan
		dc := (float64(front[i].Pred.TotalCost()) - float64(front[i+1].Pred.TotalCost())) / cSpan
		gaps = append(gaps, gap{size: math.Hypot(dt, dc), i: i})
	}
	sort.Slice(gaps, func(a, b int) bool {
		if gaps[a].size != gaps[b].size {
			return gaps[a].size > gaps[b].size
		}
		return gaps[a].i < gaps[b].i
	})
	var dls []float64
	for _, g := range gaps {
		if len(dls) >= maxNew {
			break
		}
		lo, okLo := s.sides[front[g.i].Config]
		hi, okHi := s.sides[front[g.i+1].Config]
		if !okLo || !okHi {
			continue
		}
		dl := (lo + hi) / 2
		if dl <= s.minTime || dl >= s.hiTime || s.probed(dl) || containsFloat(dls, dl) {
			continue
		}
		dls = append(dls, dl)
	}
	sort.Float64s(dls)
	return dls
}

// probed reports whether a deadline has already been searched (within
// relative FP noise).
func (s *sweep) probed(dl float64) bool {
	for _, p := range s.probes {
		if math.Abs(p.deadline-dl) <= deadlineSlack*dl {
			return true
		}
	}
	return false
}

func containsFloat(xs []float64, x float64) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// paretoPrune removes dominated and duplicate candidates and returns
// the frontier sorted fastest first (total order: time, then cost, then
// configuration, so the output is reproducible even under exact ties).
// A candidate is dominated when another is no worse on both axes and
// strictly better on one; equal (time, cost) pairs with distinct
// configurations all survive. One sort plus one linear pass replaces
// the historical all-pairs scan.
//
// A sweep prunes after every phase and a FrontierPoint is ~250 bytes, so
// the sort and the filter run over an index into cands: the only
// point-sized allocation is the result, made once at its final length.
func paretoPrune(cands []FrontierPoint) []FrontierPoint {
	if len(cands) == 0 {
		return nil
	}
	idx := make([]int32, len(cands))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		pa, pb := &cands[a], &cands[b]
		if c := cmp.Compare(pa.Pred.TotalSec(), pb.Pred.TotalSec()); c != 0 {
			return c
		}
		if c := cmp.Compare(pa.Pred.TotalCost(), pb.Pred.TotalCost()); c != 0 {
			return c
		}
		switch {
		case configLess(pa.Config, pb.Config):
			return -1
		case configLess(pb.Config, pa.Config):
			return 1
		}
		return 0
	})
	// keep is the surviving prefix of idx, written in place. It stays
	// short (a frontier is tens of points), so "already kept" is a scan.
	keep := idx[:0]
	kept := func(c mapreduce.Config) bool {
		for _, k := range keep {
			if cands[k].Config == c {
				return true
			}
		}
		return false
	}
	bestCost := math.Inf(1)
	for i := 0; i < len(idx); {
		// One group of equal times: its cheapest cost leads the group.
		lead := &cands[idx[i]]
		groupCost := float64(lead.Pred.TotalCost())
		j := i
		for ; j < len(idx) && cands[idx[j]].Pred.TotalSec() == lead.Pred.TotalSec(); j++ {
		}
		if groupCost < bestCost {
			for _, k := range idx[i:j] {
				if float64(cands[k].Pred.TotalCost()) != groupCost {
					break // dominated within the group
				}
				if !kept(cands[k].Config) {
					keep = append(keep, k)
				}
			}
			bestCost = groupCost
		}
		i = j
	}
	front := make([]FrontierPoint, len(keep))
	for i, k := range keep {
		front[i] = cands[k]
	}
	return front
}

// configLess is an arbitrary but fixed total order over configurations,
// used only to make exact-tie output order reproducible.
func configLess(a, b mapreduce.Config) bool {
	if a.MapperMemMB != b.MapperMemMB {
		return a.MapperMemMB < b.MapperMemMB
	}
	if a.CoordMemMB != b.CoordMemMB {
		return a.CoordMemMB < b.CoordMemMB
	}
	if a.ReducerMemMB != b.ReducerMemMB {
		return a.ReducerMemMB < b.ReducerMemMB
	}
	if a.ObjsPerMapper != b.ObjsPerMapper {
		return a.ObjsPerMapper < b.ObjsPerMapper
	}
	return a.ObjsPerReducer < b.ObjsPerReducer
}
