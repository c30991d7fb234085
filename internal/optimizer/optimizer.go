// Package optimizer is Astra's decision engine (Sec. IV): given a job,
// a model parameterization and a user objective — minimize completion
// time under a budget, or minimize cost under a completion-time QoS
// threshold — it searches the configuration space and returns the
// execution plan (memory tiers and degrees of parallelism).
//
// The default, Auto, is exact on the DAG: one Dijkstra answers a request
// whose constraint does not bind, and a binding one is solved by
// label-setting ordered and pruned by to-go bounds that are computed once
// per DAG template. The named alternatives:
//
//   - Algorithm1: the paper's method — Dijkstra on the Fig. 5 DAG with
//     iterative removal (a per-search ban) of constraint-violating edges.
//   - CSP: the same bounded label-setting as Auto without the opening
//     Dijkstra; the reference Auto is property-tested against.
//   - Yen: k-shortest paths on the same DAG until one satisfies the
//     constraint; exact on the DAG, the reference for Algorithm 1's gap.
//   - Rerank: top-K DAG paths re-evaluated with the exact engine model,
//     best feasible wins; repairs the DAG's separability approximations.
//   - Brute: exhaustive enumeration with the exact model; exponential in
//     nothing but simply large, so it is guarded by a work limit and used
//     to validate the others on small instances.
//
// The engine is concurrent: DAG construction and candidate evaluation
// shard across a bounded worker pool (Planner.Parallelism), model
// predictions memoize through a sharded cache keyed by (Config, params
// fingerprint), and built DAGs are frozen templates shared read-only
// across plans and calibration rounds by every solver. Every search
// accepts a context (PlanContext) for cancellation and deadlines. Results
// are deterministic: a Planner returns the identical Plan at every
// parallelism degree.
package optimizer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"astra/internal/dag"
	"astra/internal/graph"
	"astra/internal/mapreduce"
	"astra/internal/model"
	"astra/internal/parallel"
	"astra/internal/pricing"
	"astra/internal/telemetry"
)

// Goal selects the optimization problem.
type Goal int

const (
	// MinTimeUnderBudget is the Eq. 16 problem: fastest plan whose
	// predicted cost stays within Budget.
	MinTimeUnderBudget Goal = iota
	// MinCostUnderDeadline is the Eq. 20 problem: cheapest plan whose
	// predicted completion time stays within Deadline.
	MinCostUnderDeadline
)

// String names the goal.
func (g Goal) String() string {
	if g == MinCostUnderDeadline {
		return "min-cost-under-deadline"
	}
	return "min-time-under-budget"
}

// Objective is a user requirement: a goal plus its constraint.
type Objective struct {
	Goal Goal
	// Budget constrains MinTimeUnderBudget plans.
	Budget pricing.USD
	// Deadline constrains MinCostUnderDeadline plans.
	Deadline time.Duration
}

// ErrInvalidObjective is wrapped by Validate (and therefore by Plan) when
// an objective is malformed: a negative budget for MinTimeUnderBudget, or
// a non-positive deadline for MinCostUnderDeadline. Callers should test
// with errors.Is.
var ErrInvalidObjective = errors.New("optimizer: invalid objective")

// Validate reports whether the objective is well-formed. A zero budget is
// allowed (it is merely infeasible); a negative one is a caller bug, as is
// a deadline that has already passed before the job starts.
func (obj Objective) Validate() error {
	switch obj.Goal {
	case MinTimeUnderBudget:
		if obj.Budget < 0 {
			return fmt.Errorf("%w: %s with negative budget %v", ErrInvalidObjective, obj.Goal, obj.Budget)
		}
	case MinCostUnderDeadline:
		if obj.Deadline <= 0 {
			return fmt.Errorf("%w: %s with non-positive deadline %v", ErrInvalidObjective, obj.Goal, obj.Deadline)
		}
	default:
		return fmt.Errorf("%w: unknown goal %d", ErrInvalidObjective, int(obj.Goal))
	}
	return nil
}

// Solver selects the search strategy.
type Solver int

const (
	// Algorithm1 is the paper's solver.
	Algorithm1 Solver = iota
	// Yen runs k-shortest paths until the constraint holds.
	Yen
	// Rerank re-evaluates the top DAG paths with the exact model.
	Rerank
	// Brute exhaustively enumerates with the exact model.
	Brute
	// Auto is the exact default: one Dijkstra on the shared template, and
	// when that path breaks the constraint, label-setting CSP ordered and
	// pruned by the template's memoized to-go bounds. It returns CSP's
	// plan; a request whose constraint does not bind costs one Dijkstra.
	Auto
	// CSP solves the weight-constrained shortest path on the DAG exactly
	// with label-setting over the template's memoized to-go bounds, even
	// when the constraint does not bind.
	CSP
)

// String names the solver.
func (s Solver) String() string {
	switch s {
	case Yen:
		return "yen-ksp"
	case Rerank:
		return "rerank"
	case Brute:
		return "brute-force"
	case Auto:
		return "dijkstra+csp"
	case CSP:
		return "label-setting-csp"
	default:
		return "algorithm1"
	}
}

// ParseSolver maps a solver name, as flags, spec files and the wire
// schema spell it, to the constant. Names are case-insensitive; ""
// selects Auto.
func ParseSolver(name string) (Solver, error) {
	switch strings.ToLower(name) {
	case "", "auto":
		return Auto, nil
	case "algorithm1", "alg1":
		return Algorithm1, nil
	case "yen":
		return Yen, nil
	case "rerank":
		return Rerank, nil
	case "brute":
		return Brute, nil
	case "csp":
		return CSP, nil
	default:
		return 0, fmt.Errorf("unknown solver %q", name)
	}
}

// ErrNoFeasiblePlan is returned when no configuration satisfies the
// objective's constraint.
var ErrNoFeasiblePlan = errors.New("optimizer: no feasible plan")

// Plan is the optimizer's output.
type Plan struct {
	Config    mapreduce.Config
	Objective Objective
	Solver    Solver
	// Paper is the aggregate model's estimate for the chosen config.
	Paper model.Prediction
	// Exact is the engine-faithful estimate; this is what execution will
	// measure.
	Exact model.Prediction
	// Search describes how the plan was found (see SearchStats); the
	// cache, calibration and DAG-size fields are always populated, the
	// search counters only when the Planner carried a telemetry registry.
	Search SearchStats
}

// Summary renders the plan like a Table III column.
func (p Plan) Summary() string {
	return fmt.Sprintf("%s | predicted JCT %v, cost %v",
		p.Config, p.Exact.JCT().Round(time.Millisecond), p.Exact.TotalCost())
}

// Planner searches plans for one job. A Planner memoizes its model
// evaluations and DAG builds, so reusing one Planner across objectives
// (or calibration rounds) is much cheaper than constructing fresh ones;
// it is safe for concurrent use as long as its exported fields are not
// mutated mid-flight.
type Planner struct {
	Params model.Params
	Solver Solver
	// DAGOptions tunes the configuration graph (tier subset, caps).
	DAGOptions dag.Options
	// Parallelism bounds the engine's worker pool: 0 uses every available
	// core, 1 forces the serial path. The chosen plan is identical at
	// every setting.
	Parallelism int
	// Cache memoizes model predictions across solver passes. Left nil, a
	// private cache is created on first use; set it to share one cache
	// across planners for the same parameterization family.
	Cache *model.PredictionCache
	// Templates memoizes frozen DAG builds: a template hit skips
	// BuildContext entirely and hands the solvers the shared CSR graph,
	// which no solver mutates. Left nil, a private cache is created on
	// first use, so a planner reused across objectives or calibration
	// rounds builds each DAG once; set it to share builds across planner
	// instances.
	Templates *TemplateCache
	// BruteWorkLimit bounds brute-force enumeration (default 2e6 configs).
	BruteWorkLimit int
	// AggregateModel makes the DAG edges use the literal Eq. 9 aggregate
	// reduce-phase charging instead of the per-step default — the model
	// the paper wrote down verbatim, kept for the A3 planning ablation.
	AggregateModel bool
	// Tel, when non-nil, receives spans and counters for every search
	// phase (DAG builds, solver rounds, pool batches, cache traffic).
	// Each PlanContext call writes through its own Scope of Tel and reads
	// Plan.Search back from it, so plans sharing a registry never report
	// each other's work. Telemetry is observe-only: the chosen plan is
	// bit-identical with Tel set or nil. Left nil, instrumentation costs
	// one context lookup per phase.
	Tel *telemetry.Registry

	// mu guards the lazily-built memoization state: the fingerprint below
	// and the Cache and Templates defaults above.
	mu   sync.Mutex
	fp   uint64
	fpOK bool
}

// yenMaxPaths bounds the Yen scan; rerankPaths is the K of the rerank
// solver.
const (
	yenMaxPaths = 200
	rerankPaths = 50
)

// paperModel builds the DAG's edge-weight model per the planner's flags.
func (pl *Planner) paperModel() *model.Paper {
	m := model.NewPaper(pl.Params)
	m.Aggregate = pl.AggregateModel
	return m
}

// New creates a planner with the paper's solver.
func New(params model.Params) *Planner {
	return &Planner{Params: params, Solver: Algorithm1}
}

// fingerprint memoizes the parameter fingerprint.
func (pl *Planner) fingerprint() uint64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if !pl.fpOK {
		pl.fp = pl.Params.Fingerprint()
		pl.fpOK = true
	}
	return pl.fp
}

// cache returns the prediction cache, creating a private one on demand.
func (pl *Planner) cache() *model.PredictionCache {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.Cache == nil {
		pl.Cache = model.NewPredictionCache()
	}
	return pl.Cache
}

// flushPredictionTally adds a finished plan's or sweep's prediction-cache
// traffic to the registry. It is the only writer of astra_predcache_*.
func flushPredictionTally(tel *telemetry.Registry, tally *model.PredictionCache) {
	hits, misses := tally.Stats()
	tel.Counter(telemetry.MPredCacheHits).Add(int64(hits))
	tel.Counter(telemetry.MPredCacheMisses).Add(int64(misses))
	tel.Counter(telemetry.MPredCacheEvictions).Add(int64(tally.Evictions()))
}

// dagOpts resolves the DAG options, defaulting the build parallelism to
// the planner's pool size.
func (pl *Planner) dagOpts() dag.Options {
	opts := pl.DAGOptions
	if opts.Parallelism == 0 {
		opts.Parallelism = pl.Parallelism
	}
	return opts
}

// templates returns the template cache, creating a private one on demand.
func (pl *Planner) templates() *TemplateCache {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.Templates == nil {
		pl.Templates = NewTemplateCache(0)
	}
	return pl.Templates
}

// buildDAG returns the memoized DAG for a mode, building it on first use.
// The returned DAG is frozen and shared; every solver searches it in
// place.
func (pl *Planner) buildDAG(ctx context.Context, mode dag.Mode) (*dag.DAG, error) {
	opts := pl.dagOpts()
	return pl.templates().Get(ctx, TemplateKey{
		Params:    pl.fingerprint(),
		Opts:      opts.Fingerprint(),
		Mode:      mode,
		Aggregate: pl.AggregateModel,
	}, func(ctx context.Context) (*dag.DAG, error) {
		return dag.BuildContext(ctx, pl.paperModel(), mode, opts)
	})
}

// Plan solves the objective with a background context; see PlanContext.
func (pl *Planner) Plan(obj Objective) (*Plan, error) {
	return pl.PlanContext(context.Background(), obj)
}

// PlanContext solves the objective, honoring cancellation and deadlines
// on ctx: a cancelled search stops promptly, leaks no goroutines, and
// returns ctx.Err().
//
// DAG-based solvers enforce the constraint against the paper model, whose
// separability estimators can under-predict; PlanContext therefore
// verifies the chosen configuration against the exact engine model and,
// on a violation, re-solves with a proportionally tightened internal
// constraint until the user's requirement holds (a small calibration
// loop — the "dynamically adjusted and refined" modeling the paper's
// discussion section sketches). A re-solve searches the same shared
// template against warm prediction caches, and under Auto it is only the
// bounded label-setting: the plan's one Dijkstra is kept across rounds,
// since a budget that only tightens cannot revive a path it already
// rejected.
func (pl *Planner) PlanContext(ctx context.Context, obj Objective) (*Plan, error) {
	if err := pl.Params.Validate(); err != nil {
		return nil, err
	}
	if err := obj.Validate(); err != nil {
		return nil, err
	}
	// This plan's own books; both forward, to pl.Tel and to the cache.
	tel, booked := pl.Tel.Scope()
	tally := pl.cache().Tally()
	defer flushPredictionTally(tel, tally)
	ctx = telemetry.NewContext(ctx, tel)
	planSpan := tel.StartSpan("plan")
	defer planSpan.End()
	// The memoized engine-faithful model and whole-configuration paper
	// model (the default per-step formulation, not the DAG's flavor).
	exact := tally.Wrap(model.NewExact(pl.Params), pl.fingerprint(), "exact")
	paper := tally.Wrap(model.NewPaper(pl.Params), pl.fingerprint(), "paper")
	st := SearchStats{Solver: pl.Solver}
	start := time.Now()
	var free graph.Path // Auto's unconstrained optimum, found once per plan
	solve := func(o Objective) (mapreduce.Config, error) {
		switch pl.Solver {
		case Brute:
			return pl.bruteSolve(ctx, o, exact)
		case Rerank:
			return pl.rerankSolve(ctx, o, exact, &st)
		default:
			return pl.dagSolve(ctx, o, &st, &free)
		}
	}
	// Brute and Rerank already enforce the constraint under the exact
	// model; no calibration needed.
	needCalibration := pl.Solver != Brute && pl.Solver != Rerank

	// attach stamps the plan with this search's statistics: the cache
	// and calibration fields come from the tally and the loop, the search
	// counters from the scope when telemetry is attached.
	attach := func(plan *Plan, iter int) *Plan {
		st.Wall = time.Since(start)
		st.CalibrationRounds = int64(iter)
		hits, misses := tally.Stats()
		st.CacheHits, st.CacheMisses = int64(hits), int64(misses)
		st.CacheEvictions = int64(tally.Evictions())
		if tel != nil {
			tel.Counter(telemetry.MPlanSolves).Inc()
			tel.Counter(telemetry.MPlanCalibrations).Add(int64(iter))
			st.fillCounters(booked)
		}
		plan.Search = st
		return plan
	}

	internal := obj
	const maxCalibrations = 8
	for iter := 0; ; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cfg, err := solve(internal)
		if err != nil {
			return nil, err
		}
		plan, err := pl.finish(cfg, obj, paper, exact)
		if err != nil {
			return nil, err
		}
		if !needCalibration || iter >= maxCalibrations {
			return attach(plan, iter), nil
		}
		switch obj.Goal {
		case MinTimeUnderBudget:
			actual := plan.Exact.TotalCost()
			if actual <= obj.Budget {
				return attach(plan, iter), nil
			}
			internal.Budget = pricing.USD(float64(internal.Budget) * float64(obj.Budget) / float64(actual) * 0.995)
		case MinCostUnderDeadline:
			actual := plan.Exact.JCT()
			if actual <= obj.Deadline {
				return attach(plan, iter), nil
			}
			scale := obj.Deadline.Seconds() / actual.Seconds() * 0.995
			internal.Deadline = time.Duration(float64(internal.Deadline) * scale)
		}
	}
}

// finish attaches both model predictions to a chosen configuration.
func (pl *Planner) finish(cfg mapreduce.Config, obj Objective, paper, exact model.Predictor) (*Plan, error) {
	paperPred, err := paper.Predict(cfg)
	if err != nil {
		return nil, err
	}
	exactPred, err := exact.Predict(cfg)
	if err != nil {
		return nil, err
	}
	return &Plan{
		Config:    cfg,
		Objective: obj,
		Solver:    pl.Solver,
		Paper:     paperPred,
		Exact:     exactPred,
	}, nil
}

// mode and budget translate an objective into DAG terms.
func (obj Objective) mode() dag.Mode {
	if obj.Goal == MinCostUnderDeadline {
		return dag.MinimizeCost
	}
	return dag.MinimizeTime
}

func (obj Objective) sideBudget() float64 {
	if obj.Goal == MinCostUnderDeadline {
		return obj.Deadline.Seconds()
	}
	return float64(obj.Budget)
}

// searchErr translates a graph search failure, passing cancellation
// through untouched.
func searchErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if errors.Is(err, graph.ErrInfeasible) || errors.Is(err, graph.ErrNoPath) {
		return fmt.Errorf("%w: %v", ErrNoFeasiblePlan, err)
	}
	return err
}

// dagSolve runs the planner's DAG solver on the Fig. 5 DAG. The build is
// memoized and every solver searches it in place. free carries Auto's
// Dijkstra across one plan's calibration rounds (see autoSolve).
func (pl *Planner) dagSolve(ctx context.Context, obj Objective, st *SearchStats, free *graph.Path) (mapreduce.Config, error) {
	d, err := pl.buildDAG(ctx, obj.mode())
	if err != nil {
		return mapreduce.Config{}, err
	}
	st.DAGNodes, st.DAGEdges = int64(d.G.NumNodes()), int64(d.G.NumEdges())
	tel := telemetry.FromContext(ctx)
	var path graph.Path
	switch pl.Solver {
	case Yen:
		sp := tel.StartSpan("plan/solve/yen")
		path, err = d.G.YenUntilCtx(ctx, d.Src, d.Dst, obj.sideBudget(), yenMaxPaths, pl.Parallelism)
		sp.End()
	case CSP:
		sp := tel.StartSpan("plan/solve/csp")
		path, err = d.G.ConstrainedShortestPathBoundedCtx(ctx, d.Src, d.Dst, obj.sideBudget(), d.ToGoBounds(ctx), math.Inf(1))
		sp.End()
	case Auto:
		path, err = autoSolve(ctx, d, obj.sideBudget(), free)
	default:
		sp := tel.StartSpan("plan/solve/algorithm1")
		path, err = d.G.Algorithm1Ctx(ctx, d.Src, d.Dst, obj.sideBudget())
		sp.End()
	}
	if err != nil {
		return mapreduce.Config{}, searchErr(ctx, err)
	}
	return d.Decode(path)
}

// autoSolve is the Auto solver: exact, and one Dijkstra when the
// constraint does not bind. The unconstrained optimum is found once per
// plan and kept in free; if its Side meets the budget it is the
// constrained optimum too (and is what Algorithm 1's first round
// returns). Otherwise the answer comes from label-setting over the
// template's to-go bounds, which every plan and sweep on the template
// shares. Neither step mutates the template. A calibration round only
// tightens the budget, so it re-reads free instead of searching again.
func autoSolve(ctx context.Context, d *dag.DAG, budget float64, free *graph.Path) (graph.Path, error) {
	tel := telemetry.FromContext(ctx)
	if free.Nodes == nil {
		sp := tel.StartSpan("plan/solve/dijkstra")
		p, err := d.G.ShortestPathCtx(ctx, d.Src, d.Dst)
		sp.End()
		if err != nil {
			return graph.Path{}, err
		}
		*free = p
	}
	if free.Side <= budget {
		return *free, nil
	}
	sp := tel.StartSpan("plan/solve/csp")
	defer sp.End()
	return d.G.ConstrainedShortestPathBoundedCtx(ctx, d.Src, d.Dst, budget, d.ToGoBounds(ctx), math.Inf(1))
}

// rerankSolve takes the top-K DAG paths, re-evaluates each with the exact
// model in parallel, and returns the best configuration that satisfies
// the constraint under the exact model. The scan order is fixed, so the
// result does not depend on the pool size.
func (pl *Planner) rerankSolve(ctx context.Context, obj Objective, exact model.Predictor, st *SearchStats) (mapreduce.Config, error) {
	d, err := pl.buildDAG(ctx, obj.mode())
	if err != nil {
		return mapreduce.Config{}, err
	}
	st.DAGNodes, st.DAGEdges = int64(d.G.NumNodes()), int64(d.G.NumEdges())
	sp := telemetry.FromContext(ctx).StartSpan("plan/solve/rerank")
	defer sp.End()
	paths, err := d.G.YenKSPCtx(ctx, d.Src, d.Dst, rerankPaths, pl.Parallelism)
	if err != nil {
		return mapreduce.Config{}, err
	}
	if len(paths) == 0 {
		return mapreduce.Config{}, ErrNoFeasiblePlan
	}
	type scored struct {
		cfg  mapreduce.Config
		pred model.Prediction
		ok   bool
	}
	cands := make([]scored, len(paths))
	if err := parallel.ForEach(ctx, len(paths), pl.Parallelism, func(i int) {
		cfg, err := d.Decode(paths[i])
		if err != nil {
			return
		}
		pred, err := exact.Predict(cfg)
		if err != nil {
			return
		}
		cands[i] = scored{cfg: cfg, pred: pred, ok: true}
	}); err != nil {
		return mapreduce.Config{}, err
	}
	var best mapreduce.Config
	bestObjVal := 0.0
	found := false
	for _, c := range cands {
		if !c.ok {
			continue
		}
		objVal, constraint := splitObjective(obj, c.pred)
		if constraint {
			if !found || objVal < bestObjVal {
				best, bestObjVal, found = c.cfg, objVal, true
			}
		}
	}
	if !found {
		return mapreduce.Config{}, ErrNoFeasiblePlan
	}
	return best, nil
}

// splitObjective evaluates a prediction against an objective, returning
// the objective value and whether the constraint holds.
func splitObjective(obj Objective, pred model.Prediction) (float64, bool) {
	if obj.Goal == MinCostUnderDeadline {
		return float64(pred.TotalCost()), pred.TotalSec() <= obj.Deadline.Seconds()
	}
	return pred.TotalSec(), float64(pred.TotalCost()) <= float64(obj.Budget)
}

// bruteCandidate is one (kM, kR) pair's best configuration under the
// exact model, with val/tie carrying the serial comparison state.
type bruteCandidate struct {
	found    bool
	cfg      mapreduce.Config
	val, tie float64
}

// better reports whether challenger beats incumbent under the serial
// scan's strict-improvement rule (ties keep the earlier candidate).
func (c bruteCandidate) better(than bruteCandidate) bool {
	if !c.found {
		return false
	}
	if !than.found {
		return true
	}
	return c.val < than.val || (c.val == than.val && c.tie < than.tie)
}

// bruteSolve enumerates every configuration with the exact model,
// sharding the (kM, kR) enumeration across the worker pool. Each pair's
// inner tier scan runs in the serial order, and pair results fold in
// ascending (kM, kR) order, so the winner is exactly the serial scan's.
func (pl *Planner) bruteSolve(ctx context.Context, obj Objective, exact model.Predictor) (mapreduce.Config, error) {
	tiers := pl.DAGOptions.Tiers
	if len(tiers) == 0 {
		tiers = pl.Params.Sheet.Lambda.MemoryTiers()
	}
	n := pl.Params.Job.NumObjects
	maxKM := pl.DAGOptions.MaxKM
	if maxKM <= 0 || maxKM > n {
		maxKM = n
	}
	maxKR := pl.DAGOptions.MaxKR
	if maxKR <= 0 || maxKR > n {
		maxKR = n
	}
	limit := pl.BruteWorkLimit
	if limit <= 0 {
		limit = 2_000_000
	}
	combos := maxKM * maxKR * len(tiers) * len(tiers) * len(tiers)
	if combos > limit {
		return mapreduce.Config{}, fmt.Errorf(
			"optimizer: brute force over %d configurations exceeds the work limit %d; restrict DAGOptions",
			combos, limit)
	}
	sp := telemetry.FromContext(ctx).StartSpan("plan/solve/brute")
	defer sp.End()
	pairs := make([]bruteCandidate, maxKM*maxKR)
	if err := parallel.ForEach(ctx, len(pairs), pl.Parallelism, func(pi int) {
		kM := pi/maxKR + 1
		kR := pi%maxKR + 1
		orch, err := mapreduce.OrchestrateFor(pl.Params.Job.Profile, n, kM, kR)
		if err != nil {
			return
		}
		if model.Feasible(pl.Params, orch) != nil {
			return
		}
		var best bruteCandidate
		for _, i := range tiers {
			if ctx.Err() != nil {
				return
			}
			for _, a := range tiers {
				for _, s := range tiers {
					cfg := mapreduce.Config{
						MapperMemMB: i, CoordMemMB: a, ReducerMemMB: s,
						ObjsPerMapper: kM, ObjsPerReducer: kR,
					}
					pred, err := exact.Predict(cfg)
					if err != nil {
						continue
					}
					val, ok := splitObjective(obj, pred)
					if !ok {
						continue
					}
					tie := float64(pred.TotalCost())
					if obj.Goal == MinCostUnderDeadline {
						tie = pred.TotalSec()
					}
					if cand := (bruteCandidate{found: true, cfg: cfg, val: val, tie: tie}); cand.better(best) {
						best = cand
					}
				}
			}
		}
		pairs[pi] = best
	}); err != nil {
		return mapreduce.Config{}, err
	}
	var best bruteCandidate
	for _, cand := range pairs {
		if cand.better(best) {
			best = cand
		}
	}
	if !best.found {
		return mapreduce.Config{}, ErrNoFeasiblePlan
	}
	return best.cfg, nil
}
