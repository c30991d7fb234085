// Package astra is the public API of the Astra reproduction: autonomous
// configuration and orchestration of serverless analytics jobs with
// cost-efficiency and QoS-awareness (Jarachanthan et al., IPDPS 2021).
//
// A job is a workload profile plus its input layout in the object store.
// The user states one of two objectives — minimize completion time under
// a monetary budget, or minimize monetary cost under a completion-time
// threshold — and Astra searches the coupled configuration space (three
// memory allocations, objects per mapper, objects per reducer) for the
// optimal execution plan, which can then be executed on the bundled
// simulated serverless platform.
//
// Quick start:
//
//	job := astra.WordCount1GB()
//	plan, err := astra.Plan(job, astra.MinTime(0.01))   // <= $0.01
//	report, err := astra.Run(job, plan.Config)          // simulate it
//
// The simulated platform reproduces the semantics the paper's models
// assume of AWS Lambda and S3 (memory-proportional compute speed,
// per-request and per-dispatch latencies, request/duration/storage
// billing) on a deterministic virtual clock, so multi-hour 100 GB jobs
// execute in milliseconds of wall time with exactly reproducible results.
package astra

import (
	"context"
	"sync"
	"time"

	"astra/internal/chaos"
	"astra/internal/flight"
	"astra/internal/mapreduce"
	"astra/internal/model"
	"astra/internal/objectstore"
	"astra/internal/optimizer"
	"astra/internal/parallel"
	"astra/internal/pipeline"
	"astra/internal/pricing"
	"astra/internal/profiler"
	"astra/internal/qos"
	"astra/internal/simtime"
	"astra/internal/simworld"
	"astra/internal/telemetry"
	"astra/internal/workload"
)

// Core types, re-exported from the implementation packages.
type (
	// Job is a workload profile plus its input layout.
	Job = workload.Job
	// Profile is a workload calibration record.
	Profile = workload.Profile
	// Config is one point of the configuration space: memory tiers and
	// degrees of parallelism.
	Config = mapreduce.Config
	// Orchestration is the derived job shape: mapper loads and the
	// reducing cascade.
	Orchestration = mapreduce.Orchestration
	// Objective is a user requirement (goal + constraint).
	Objective = optimizer.Objective
	// ExecutionPlan is the optimizer's output: a configuration with its
	// model predictions.
	ExecutionPlan = optimizer.Plan
	// Report is a measured execution outcome.
	Report = mapreduce.Report
	// Params is the model parameterization (prices, bandwidth,
	// latencies, speed scaling).
	Params = model.Params
	// USD is a monetary amount.
	USD = pricing.USD
	// Solver selects the plan-search strategy.
	Solver = optimizer.Solver
)

// Workload profiles.
var (
	WordCount = workload.WordCount
	Sort      = workload.Sort
	Query     = workload.Query
)

// Solvers.
const (
	// SolverAuto is exact on the configuration DAG: one label-setting
	// search over the template's memoized to-go bounds, which pops only
	// the optimal path's labels when the constraint does not bind; the
	// recommended default. Its wire names are "auto" and "csp".
	SolverAuto = optimizer.Auto
	// SolverAlgorithm1 is the paper's heuristic, as written.
	SolverAlgorithm1 = optimizer.Algorithm1
	// SolverBrute exhaustively enumerates small instances with the exact
	// model. It is Go API only: no flag, spec file or wire request can
	// name it, since one enumeration costs seconds of CPU.
	SolverBrute = optimizer.Brute
)

// The paper's evaluation inputs.
var (
	WordCount1GB  = workload.WordCount1GB
	WordCount10GB = workload.WordCount10GB
	WordCount20GB = workload.WordCount20GB
	Sort100GB     = workload.Sort100GB
	Query25GB     = workload.Query25GB
)

// NewJob describes a custom input: a profile, the object count, and the
// total dataset size in bytes (split evenly across objects).
func NewJob(pf Profile, numObjects int, totalBytes int64) Job {
	if numObjects <= 0 {
		numObjects = 1
	}
	return Job{Profile: pf, NumObjects: numObjects, ObjectSize: totalBytes / int64(numObjects)}
}

// Errors surfaced by the planner, exported so callers can test with
// errors.Is instead of string-matching.
var (
	// ErrInfeasible is wrapped by Plan when no configuration satisfies
	// the objective's constraint.
	ErrInfeasible = optimizer.ErrNoFeasiblePlan
	// ErrInvalidObjective is wrapped by Plan when the objective is
	// malformed: MinTime with a negative budget, or MinCost with a
	// non-positive deadline.
	ErrInvalidObjective = optimizer.ErrInvalidObjective
)

// MinTime is the Eq. 16 objective: the fastest plan costing at most
// budget dollars. A negative budget is rejected by Plan with
// ErrInvalidObjective.
func MinTime(budgetUSD float64) Objective {
	return Objective{Goal: optimizer.MinTimeUnderBudget, Budget: USD(budgetUSD)}
}

// MinCost is the Eq. 20 objective: the cheapest plan finishing within the
// deadline. A non-positive deadline is rejected by Plan with
// ErrInvalidObjective.
func MinCost(deadline time.Duration) Objective {
	return Objective{Goal: optimizer.MinCostUnderDeadline, Deadline: deadline}
}

// PlanCache memoizes model predictions across planning calls. Share one
// cache (via WithPlanCache) among plans for the same job parameterization
// to make repeated searches — re-planning under a new budget, frontier
// sweeps, A/B solver comparisons — substantially cheaper.
type PlanCache = model.PredictionCache

// NewPlanCache creates an empty prediction cache, safe for concurrent use.
func NewPlanCache() *PlanCache { return model.NewPredictionCache() }

// TemplateCache shares frozen configuration-DAG builds across planning
// calls and planner instances: jobs of the same shape (same object
// count, tier set, price sheet and model parameters) reuse one built
// graph, so a template-hit plan skips the thousands of model
// evaluations behind DAG construction entirely. Misses build once under
// singleflight — a thundering herd of identical jobs performs a single
// build. Plan, Frontier and PlanPipeline use a process-wide shared
// cache by default (see SharedCaches); pass WithTemplateCache to scope
// one explicitly, or WithPrivateCaches to opt a call out of sharing.
type TemplateCache = optimizer.TemplateCache

// TemplateStats summarizes template-cache traffic (hits, misses,
// builds, singleflight waits, evictions, resident entries).
type TemplateStats = optimizer.TemplateStats

// NewTemplateCache creates a bounded DAG-template cache; maxTemplates
// <= 0 selects the default bound. Safe for concurrent use.
func NewTemplateCache(maxTemplates int) *TemplateCache {
	return optimizer.NewTemplateCache(maxTemplates)
}

// Process-wide shared planning caches, created on first use. One
// template cache and one bounded prediction cache serve every Plan/
// Frontier/PlanPipeline call that does not override them, so concurrent
// planner instances amortize cold-plan work instead of each maintaining
// private state.
var (
	sharedOnce      sync.Once
	sharedTemplates *TemplateCache
	sharedPlanCache *PlanCache
)

// sharedPredictionCap bounds the process-wide prediction cache. A cold
// unconstrained plan memoizes 2 predictions (the chosen configuration
// under the paper model and under the exact one); binding plans and
// frontier sweeps memoize one per candidate they re-evaluate. 1<<18
// entries holds a long stream of distinct tenant shapes before eviction
// while keeping worst-case residency bounded.
const sharedPredictionCap = 1 << 18

// SharedCaches returns the process-wide template and prediction caches
// that Plan, Frontier and PlanPipeline use by default. Expose their
// Stats on a dashboard, or pass them to your own optimizer.Planner
// instances to join the shared pool.
func SharedCaches() (*TemplateCache, *PlanCache) {
	sharedOnce.Do(func() {
		sharedTemplates = NewTemplateCache(0)
		sharedPlanCache = model.NewPredictionCacheWithCap(sharedPredictionCap)
	})
	return sharedTemplates, sharedPlanCache
}

// Telemetry is a metrics-and-spans registry: atomic counters, gauges,
// bounded histograms and hierarchical spans over wall and virtual time.
// Attach one to planning (WithTelemetry) and/or execution
// (WithRunTelemetry), then export with Snapshot().WritePrometheus or
// WriteJSON. Telemetry is observe-only — plans and simulated results are
// bit-identical with a registry attached or not — and a nil *Telemetry
// everywhere means zero overhead.
type Telemetry = telemetry.Registry

// TelemetrySnapshot is a frozen registry state, safe to diff and export
// while the live registry keeps counting.
type TelemetrySnapshot = telemetry.Snapshot

// NewTelemetry creates an empty registry, safe for concurrent use.
func NewTelemetry() *Telemetry { return telemetry.New() }

// planSettings is the resolved option set for one planning call.
type planSettings struct {
	params      Params
	hasParams   bool
	solver      Solver
	parallelism int
	cache       *PlanCache
	templates   *TemplateCache
	private     bool
	tel         *Telemetry
}

// resolveCaches applies the sharing policy: explicit caches win, then
// the process-wide shared pair, unless the call opted out entirely.
func (ps *planSettings) resolveCaches() (*TemplateCache, *PlanCache) {
	tc, pc := ps.templates, ps.cache
	if !ps.private {
		stc, spc := SharedCaches()
		if tc == nil {
			tc = stc
		}
		if pc == nil {
			pc = spc
		}
	}
	return tc, pc
}

// planner builds the optimizer.Planner a planning call or frontier sweep
// runs on for job: the job's default parameters unless WithParams gave
// some, and the caches resolveCaches picks.
func (ps *planSettings) planner(job Job) *optimizer.Planner {
	params := ps.params
	if !ps.hasParams {
		params = model.DefaultParams(job)
	}
	pl := optimizer.New(params)
	pl.Solver = ps.solver
	pl.Parallelism = ps.parallelism
	pl.Templates, pl.Cache = ps.resolveCaches()
	pl.Tel = ps.tel
	return pl
}

// PlanOption customizes a planning search (see Plan).
type PlanOption func(*planSettings)

// WithSolver selects the plan-search strategy (default SolverAuto).
func WithSolver(s Solver) PlanOption {
	return func(ps *planSettings) { ps.solver = s }
}

// WithParams substitutes an explicit model parameterization for the job's
// defaults (custom price sheet, bandwidth, latencies, speed scaling).
func WithParams(p Params) PlanOption {
	return func(ps *planSettings) { ps.params, ps.hasParams = p, true }
}

// WithParallelism bounds the search engine's worker pool: 0 (the default)
// uses every available core, 1 forces the serial engine. The chosen plan
// is identical at every setting; only wall-clock time changes.
func WithParallelism(n int) PlanOption {
	return func(ps *planSettings) { ps.parallelism = n }
}

// WithPlanCache shares a prediction cache with the search, so repeated
// planning over the same parameterization skips recomputing model
// evaluations.
func WithPlanCache(c *PlanCache) PlanOption {
	return func(ps *planSettings) { ps.cache = c }
}

// WithTemplateCache shares a DAG-template cache with the search: a plan
// for a job shape whose frozen configuration graph is already cached
// skips DAG construction entirely. The chosen plan is bit-identical
// with a hit, a miss, or no cache at all.
func WithTemplateCache(tc *TemplateCache) PlanOption {
	return func(ps *planSettings) { ps.templates = tc }
}

// WithPrivateCaches opts this call out of the process-wide shared
// template and prediction caches: with no explicit WithPlanCache/
// WithTemplateCache, the search builds and memoizes privately, as a
// cold standalone plan would. Benchmarks and isolation-sensitive tests
// want this; services should not.
func WithPrivateCaches() PlanOption {
	return func(ps *planSettings) { ps.private = true }
}

// WithTelemetry attaches a registry to the search: DAG builds, solver
// rounds, edge relaxations, pool activity and cache traffic are counted,
// and the plan's Search stats and Explain() report gain their full
// detail. The chosen plan is identical with or without it.
func WithTelemetry(reg *Telemetry) PlanOption {
	return func(ps *planSettings) { ps.tel = reg }
}

// Plan searches for the optimal configuration of a job under an
// objective. With no options it uses the job's default model parameters,
// the Auto solver, and a worker pool spanning every available core:
//
//	plan, err := astra.Plan(job, astra.MinTime(0.01),
//	        astra.WithSolver(astra.SolverAlgorithm1), astra.WithParallelism(4))
//
// Plan is PlanContext with context.Background(); use PlanContext to bound
// or cancel the search.
func Plan(job Job, obj Objective, opts ...PlanOption) (*ExecutionPlan, error) {
	return PlanContext(context.Background(), job, obj, opts...)
}

// PlanContext is Plan with cancellation: the search engine checks ctx
// throughout DAG construction, path search and candidate evaluation, and
// returns ctx.Err() promptly — leaking no goroutines — if it fires.
func PlanContext(ctx context.Context, job Job, obj Objective, opts ...PlanOption) (*ExecutionPlan, error) {
	ps := planSettings{solver: SolverAuto}
	for _, opt := range opts {
		opt(&ps)
	}
	return ps.planner(job).PlanContext(ctx, obj)
}

// BatchRequest is one planning request in a PlanBatch call.
type BatchRequest struct {
	Job       Job
	Objective Objective
}

// BatchResult is one PlanBatch outcome, index-aligned with the request
// slice. Exactly one of Plan and Err is set.
type BatchResult struct {
	Plan *ExecutionPlan
	Err  error
}

// PlanBatch plans many jobs concurrently over one bounded worker pool,
// sharing a single DAG-template cache and prediction cache across every
// request — the multi-tenant front end: a batch of recurring job shapes
// builds each distinct configuration DAG once (under singleflight) and
// every subsequent plan of that shape is a template hit.
//
// Results are index-aligned with requests and deterministic: each plan
// is bit-identical to what Plan would return for the same job and
// objective. Per-request failures (infeasible objectives, invalid
// parameters) land in the corresponding BatchResult.Err; PlanBatch
// itself only returns an error when ctx is cancelled before the batch
// drains.
//
// Options apply batch-wide. WithParallelism bounds the outer pool over
// requests (0 = all cores); each request's inner search runs serial,
// since cross-request concurrency already saturates the pool. WithParams
// substitutes the parameterization template for every request, with each
// request's Job spliced in.
func PlanBatch(ctx context.Context, reqs []BatchRequest, opts ...PlanOption) ([]BatchResult, error) {
	ps := planSettings{solver: SolverAuto}
	for _, opt := range opts {
		opt(&ps)
	}
	// One pair of caches for the whole batch, private ones included.
	ps.templates, ps.cache = ps.resolveCaches()
	if ps.templates == nil {
		ps.templates = NewTemplateCache(0)
	}
	if ps.cache == nil {
		ps.cache = NewPlanCache()
	}
	results := make([]BatchResult, len(reqs))
	if ps.tel != nil {
		ctx = telemetry.NewContext(ctx, ps.tel)
	}
	err := parallel.ForEach(ctx, len(reqs), ps.parallelism, func(i int) {
		req := reqs[i]
		pl := ps.planner(req.Job)
		if ps.hasParams {
			pl.Params.Job = req.Job
		}
		pl.Parallelism = 1
		plan, perr := pl.PlanContext(ctx, req.Objective)
		results[i] = BatchResult{Plan: plan, Err: perr}
	})
	if tel := ps.tel; tel != nil {
		var failed int64
		for i := range results {
			if results[i].Err != nil {
				failed++
			}
		}
		tel.Counter(telemetry.MBatchPlans).Add(int64(len(results)) - failed)
		if failed > 0 {
			tel.Counter(telemetry.MBatchErrors).Add(failed)
		}
	}
	if err != nil {
		return results, err
	}
	return results, nil
}

// Baselines returns the paper's three baseline configurations for a job.
func Baselines(job Job) []Config { return optimizer.Baselines(job.NumObjects) }

// RunOption customizes a job's execution.
type RunOption func(*mapreduce.JobSpec)

// WithStepFunctions orchestrates the reduce phase with a managed workflow
// instead of the coordinator lambda (the paper's footnote 1 alternative:
// faster coordination, but billed per state transition).
func WithStepFunctions() RunOption {
	return func(s *mapreduce.JobSpec) { s.Orchestrator = mapreduce.StepFunctions }
}

// WithCacheIntermediates places the job's ephemeral data on a Redis-like
// in-memory tier (10x bandwidth, sub-ms latency, provisioned GB-hour
// pricing) instead of the object store — the Pocket/Locus design point
// from the paper's discussion section.
func WithCacheIntermediates() RunOption {
	cache := objectstore.CacheClass()
	return func(s *mapreduce.JobSpec) { s.IntermediateClass = &cache }
}

// FlightRecorder is a bounded, deterministic event recorder for one run:
// every invocation lifecycle transition (scheduled, queued, cold start,
// running, done/timeout/retry/throttle), every object-store operation, and
// the driver's phase barriers are captured as structured virtual-time
// events. Attach one with WithFlightRecorder; the run's Report then
// carries the event stream (Report.Events), supports Report.Audit(), and
// the events export as deterministic JSONL (flight.WriteJSONL) or an
// OTLP-flavored span tree (flight.WriteOTLP). Recording is observe-only:
// the simulated outcome is bit-identical with or without a recorder, and a
// nil *FlightRecorder costs nothing.
type FlightRecorder = flight.Recorder

// NewFlightRecorder creates a recorder with the default ring capacity
// (events beyond it overwrite the oldest; see flight.NewWithCapacity).
func NewFlightRecorder() *FlightRecorder { return flight.New() }

// WithFlightRecorder attaches a flight recorder to the execution and
// arranges for the report to carry the recorded event stream plus the
// model's per-stage predicted breakdown for the executed configuration
// (enabling the predicted-vs-measured audit).
func WithFlightRecorder(rec *FlightRecorder) RunOption {
	return func(s *mapreduce.JobSpec) { s.Recorder = rec }
}

// Chaos types, re-exported from internal/chaos: a declarative fault plan
// and the deterministic engine that compiles it into platform injectors.
type (
	// ChaosPlan is a seeded set of fault-injection rules (JSON-loadable;
	// see chaos.Plan for the schema).
	ChaosPlan = chaos.Plan
	// ChaosRule is one fault rule: matchers plus an effect.
	ChaosRule = chaos.Rule
	// ChaosEngine compiles a plan into the platform's injector
	// interfaces. Engines are single-run: build a fresh one per Run so
	// rule fire-counters start from zero.
	ChaosEngine = chaos.Engine
	// ChaosStats summarizes what an engine injected during a run.
	ChaosStats = chaos.Stats
	// Resilience is the Report section attributing a run's fault and
	// recovery costs.
	Resilience = mapreduce.Resilience
)

// LoadChaosPlan reads and validates a JSON chaos profile from a file.
// Unknown fields and structurally invalid rules are rejected.
func LoadChaosPlan(path string) (*ChaosPlan, error) { return chaos.Load(path) }

// ParseChaosPlan parses and validates a JSON chaos profile from memory.
func ParseChaosPlan(data []byte) (*ChaosPlan, error) { return chaos.ParseBytes(data) }

// NewChaosEngine validates a plan and builds a single-run injection
// engine. Injection is deterministic: every probabilistic decision is a
// pure function of (plan seed, rule, invocation identity), so the same
// seeded plan produces the same faults — and byte-identical flight
// recordings — under serial and parallel planning alike.
func NewChaosEngine(p *ChaosPlan) (*ChaosEngine, error) { return chaos.NewEngine(p) }

// WithChaos subjects the execution to a fault-injection engine: lambda
// attempts can be failed (before start or mid-flight, both billed),
// straggled, forced cold, or throttled, and object-store requests can
// return transient errors, all per the engine's plan. The Report's
// Resilience section attributes what was injected and what recovery cost.
func WithChaos(e *ChaosEngine) RunOption {
	return func(s *mapreduce.JobSpec) {
		s.Injector = e
		s.StoreInjector = e
	}
}

// WithSpeculation enables speculative backups for straggling tasks: when
// a task runs past multiplier times its model-predicted duration, the
// driver launches a duplicate and the first finisher wins (losers are
// cancelled but billed). Pass multiplier <= 0 for the default threshold
// (1.5x). Predicted durations are filled from the planner's per-stage
// breakdown for the executed configuration.
func WithSpeculation(multiplier float64) RunOption {
	return func(s *mapreduce.JobSpec) {
		s.Speculation = &mapreduce.SpeculationPolicy{Multiplier: multiplier}
	}
}

// WithTaskRetries sets how many times a failed mapper or reducer task is
// re-invoked before the job fails (default 0: any task failure fails the
// job). Retried attempts stay billed; set this when running under a
// chaos profile with failure effects.
func WithTaskRetries(n int) RunOption {
	return func(s *mapreduce.JobSpec) { s.TaskRetries = n }
}

// WithRunTelemetry attaches a registry to the execution: lambda
// invocations, cold starts, throttles, object-store traffic and
// virtual-time phase spans are recorded. The simulated outcome is
// identical with or without it.
func WithRunTelemetry(reg *Telemetry) RunOption {
	return func(s *mapreduce.JobSpec) { s.Telemetry = reg }
}

// Streaming QoS monitoring types, re-exported from internal/qos: the
// per-run monitor (drift scores, deadline risk, cost burn) and the
// cross-run per-tenant/per-job SLO ledger.
type (
	// QoSMonitor follows one run's flight-recorder stream in virtual
	// time and maintains drift, deadline-risk and cost-burn state.
	// Observe-only: attaching one never changes the simulated outcome,
	// and a nil monitor costs nothing.
	QoSMonitor = qos.Monitor
	// QoSOptions configures a QoSMonitor (deadline, margins, identity,
	// ledger, telemetry). Unset plan inputs are filled from the
	// planner's predicted breakdown at Run time.
	QoSOptions = qos.Options
	// QoSLedger aggregates SLO outcomes per (tenant, job) across runs.
	QoSLedger = qos.Ledger
	// QoSSnapshot is a frozen monitor state (served by /qos).
	QoSSnapshot = qos.Snapshot
	// QoSLedgerSnapshot is a frozen ledger view.
	QoSLedgerSnapshot = qos.LedgerSnapshot
	// QoSTransition is one recorded risk or drift transition.
	QoSTransition = qos.Transition
	// QoSState is the deadline-risk verdict (on_track/at_risk/breached).
	QoSState = qos.State
)

// NewQoSMonitor creates a streaming QoS monitor. Fields left zero in the
// options are defaulted from the plan when the monitor is attached to a
// run (deadline = 1.5x predicted JCT, 5% risk margin, CUSUM k=0.25 h=1).
func NewQoSMonitor(o QoSOptions) *QoSMonitor { return qos.New(o) }

// NewQoSLedger creates an empty SLO ledger, shareable across monitors
// and runs.
func NewQoSLedger() *QoSLedger { return qos.NewLedger() }

// WithQoSMonitor attaches a streaming QoS monitor to the execution: the
// monitor consumes the run's flight-recorder events at driver barriers
// and maintains per-stage drift scores, a deadline-risk state with exact
// virtual-time transition instants, and cost burn. A flight recorder is
// attached automatically when the spec has none. Monitoring is
// observe-only — the simulated outcome and the recorded event stream are
// bit-identical with or without it.
func WithQoSMonitor(m *QoSMonitor) RunOption {
	return func(s *mapreduce.JobSpec) {
		if m == nil {
			return
		}
		s.QoS = m
	}
}

// Run executes a configuration on a fresh simulated platform in profiled
// mode (any input scale; data is metadata-only) and reports measured
// timing and cost. Run is RunContext with context.Background().
func Run(job Job, cfg Config, opts ...RunOption) (*Report, error) {
	return RunContext(context.Background(), job, cfg, opts...)
}

// RunContext is Run with cancellation: the simulation's event loop checks
// ctx between events and, when it fires, tears the virtual platform down
// and returns ctx.Err(). The ctx deadline bounds wall-clock execution,
// not the simulated clock.
func RunContext(ctx context.Context, job Job, cfg Config, opts ...RunOption) (*Report, error) {
	return runContextWith(ctx, model.DefaultParams(job), cfg, opts...)
}

// RunWith is Run with explicit model parameters.
func RunWith(params Params, cfg Config, opts ...RunOption) (*Report, error) {
	return runContextWith(context.Background(), params, cfg, opts...)
}

func runContextWith(ctx context.Context, params Params, cfg Config, opts ...RunOption) (*Report, error) {
	world, err := simworld.New(params, simworld.Input{Bucket: "input"})
	if err != nil {
		return nil, err
	}
	return simulate(ctx, world, cfg, opts, nil)
}

// RunConcrete executes a configuration over real generated data: the
// mappers and reducers run genuine word-count/sort/query code, and the
// final output object's contents are returned alongside the report.
// Intended for correctness checks and small inputs (the host must hold
// the dataset).
func RunConcrete(job Job, cfg Config, seed int64, opts ...RunOption) (*Report, [][]byte, error) {
	world, err := simworld.New(model.DefaultParams(job), simworld.Input{Bucket: "input", Concrete: true, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	var outputs [][]byte
	rep, err := simulate(context.Background(), world, cfg, opts,
		func(p *simtime.Proc, rep *Report) error {
			for _, key := range rep.OutputKeys {
				obj, err := world.Store.Get(p, rep.InterBucket, key)
				if err != nil {
					return err
				}
				outputs = append(outputs, obj.Data)
			}
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	return rep, outputs, nil
}

// simulate executes one job on a fresh world and then, still inside the
// simulation, hands the root process to after (e.g. to retrieve output
// objects).
func simulate(ctx context.Context, world *simworld.World, cfg Config, opts []RunOption,
	after func(*simtime.Proc, *Report) error) (*Report, error) {
	// The planner's per-stage breakdown for the executed configuration,
	// predicted at most once and only when something consumes it. A
	// prediction failure is not a run failure: the consumers degrade.
	var bd *flight.Breakdown
	recorded := false
	apply := func(spec *mapreduce.JobSpec) {
		for _, opt := range opts {
			opt(spec)
		}
		mon, _ := spec.QoS.(*qos.Monitor)
		if mon != nil && spec.Recorder == nil {
			// The monitor reads the run through the flight recorder; attach
			// one if the caller didn't.
			spec.Recorder = flight.New()
		}
		pol := spec.Speculation
		recorded = spec.Recorder != nil
		if !recorded && pol == nil {
			return
		}
		pred, perr := model.NewExact(world.Params).PredictBreakdown(cfg)
		if perr != nil {
			return
		}
		bd = pred
		if mon != nil {
			// Plan inputs (predicted breakdown, price sheet, default
			// deadline) are filled here so WithQoSMonitor callers don't
			// have to predict the breakdown themselves.
			mon.EnsurePlan(bd, world.Params.Sheet)
		}
		if pol != nil {
			// Speculation needs per-task predicted durations to recognize
			// a straggler; without a prediction the run proceeds with
			// speculation effectively disabled (no deadline, no backups).
			pol.FromBreakdown(bd)
		}
	}
	rep, err := world.Run(ctx, cfg, apply, after)
	if err != nil {
		return nil, err
	}
	if recorded {
		// Lets Report.Audit() diff prediction against the recording.
		// Purely additive: the measured outcome is unchanged, and without
		// a prediction the audit is measurement-only.
		rep.Predicted = bd
	}
	return rep, nil
}

// Pipeline types, re-exported for multi-stage analytics (chains of
// MapReduce stages whose outputs feed the next stage).
type (
	// Pipeline is an ordered chain of stages with an external input.
	Pipeline = pipeline.Pipeline
	// PipelineStage is one MapReduce phase of a pipeline.
	PipelineStage = pipeline.Stage
	// PipelinePlan is a composite plan with one configuration per stage.
	PipelinePlan = pipeline.Plan
	// PipelineResult is a measured pipeline execution.
	PipelineResult = pipeline.Result
)

// Grep is the log-filtering workload profile (pipeline filter stages).
var Grep = workload.Grep

// PlanPipeline allocates a global budget or deadline across a pipeline's
// stages and returns per-stage configurations. It is PlanPipelineContext
// with context.Background().
func PlanPipeline(p Pipeline, obj Objective) (*PipelinePlan, error) {
	return PlanPipelineContext(context.Background(), p, obj)
}

// PlanPipelineContext is PlanPipeline with cancellation and planning
// options (WithParallelism bounds the per-stage frontier sweeps).
func PlanPipelineContext(ctx context.Context, p Pipeline, obj Objective, opts ...PlanOption) (*PipelinePlan, error) {
	if len(p.Stages) == 0 {
		return nil, p.Validate()
	}
	ps := planSettings{}
	for _, opt := range opts {
		opt(&ps)
	}
	params := ps.params
	if !ps.hasParams {
		params = model.DefaultParams(workload.Job{
			Profile:    p.Stages[0].Profile,
			NumObjects: p.InputObjects,
			ObjectSize: p.InputBytes / int64(maxInt(p.InputObjects, 1)),
		})
	}
	pl := pipeline.NewPlanner(params)
	pl.Parallelism = ps.parallelism
	pl.Templates, pl.Cache = ps.resolveCaches()
	return pl.PlanContext(ctx, p, obj)
}

// RunPipeline executes a planned pipeline on a fresh simulated platform.
func RunPipeline(p Pipeline, plan *PipelinePlan) (*PipelineResult, error) {
	params := model.DefaultParams(workload.Job{
		Profile:    p.Stages[0].Profile,
		NumObjects: p.InputObjects,
		ObjectSize: p.InputBytes / int64(maxInt(p.InputObjects, 1)),
	})
	return pipeline.Execute(params, p, plan)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Frontier types, re-exported from the optimizer.
type (
	// FrontierPoint is one Pareto-optimal configuration on a job's
	// time/cost tradeoff curve.
	FrontierPoint = optimizer.FrontierPoint
	// FrontierResult is a computed frontier (fastest first) plus the
	// sweep's search statistics.
	FrontierResult = optimizer.FrontierResult
	// FrontierUpdate is one anytime snapshot of a sweep in progress,
	// delivered to a WithFrontierObserver callback after every phase.
	FrontierUpdate = optimizer.FrontierUpdate
	// FrontierStats describes how a sweep earned its frontier: phases,
	// searches run and pruned, exact-model evaluations, cache traffic.
	FrontierStats = optimizer.FrontierStats
)

// frontierSettings is the resolved option set for one frontier sweep.
// It embeds planSettings so every PlanOption applies unchanged.
type frontierSettings struct {
	planSettings
	size     int
	observer func(FrontierUpdate)
}

// FrontierOption customizes a frontier sweep. Every PlanOption
// (WithParams, WithParallelism, WithPlanCache, WithTelemetry) is also a
// FrontierOption, so planning and sweeping share one options
// vocabulary; WithFrontierSize and WithFrontierObserver are
// frontier-specific.
type FrontierOption interface {
	applyFrontier(*frontierSettings)
}

// applyFrontier makes every PlanOption usable in Frontier calls.
func (o PlanOption) applyFrontier(fs *frontierSettings) { o(&fs.planSettings) }

// frontierOption is a frontier-specific option.
type frontierOption func(*frontierSettings)

func (o frontierOption) applyFrontier(fs *frontierSettings) { o(fs) }

// WithFrontierSize sets the target number of frontier points (default
// 24). The sweep refines until it has that many Pareto points or
// refinement stops making progress; dominance pruning may keep a few
// extra points for free.
func WithFrontierSize(k int) FrontierOption {
	return frontierOption(func(fs *frontierSettings) { fs.size = k })
}

// WithFrontierObserver streams anytime snapshots: fn is called after
// every sweep phase with the frontier refined so far, and once more
// with the final result (Final true, Points identical to the returned
// FrontierResult). Calls are sequential and synchronous on the sweep's
// goroutine; cancel the sweep's context from inside fn to stop early
// and keep the points already on hand.
func WithFrontierObserver(fn func(FrontierUpdate)) FrontierOption {
	return frontierOption(func(fs *frontierSettings) { fs.observer = fn })
}

// Frontier computes a job's time/cost Pareto frontier (fastest first):
// every point is a configuration no other candidate beats on both
// completion time and cost. The sweep is incremental — endpoints first,
// then interpolated midpoints, then bisection of the largest gaps — so
// an observer sees a usable tradeoff curve almost immediately:
//
//	res, err := astra.Frontier(job,
//	        astra.WithFrontierSize(16),
//	        astra.WithFrontierObserver(func(u astra.FrontierUpdate) {
//	                fmt.Printf("phase %d: %d points\n", u.Phase, len(u.Points))
//	        }))
//
// Frontier is FrontierContext with context.Background().
func Frontier(job Job, opts ...FrontierOption) (*FrontierResult, error) {
	return FrontierContext(context.Background(), job, opts...)
}

// FrontierContext is Frontier with cancellation: the DAG build, the
// constrained searches and the exact re-evaluations behind the sweep
// all shard over the worker pool (WithParallelism) and abort with
// ctx.Err() when ctx fires. When no configuration is feasible the
// error matches ErrInfeasible under errors.Is.
func FrontierContext(ctx context.Context, job Job, opts ...FrontierOption) (*FrontierResult, error) {
	var fs frontierSettings
	for _, opt := range opts {
		opt.applyFrontier(&fs)
	}
	return fs.planner(job).Frontier(ctx, fs.size, fs.observer)
}

// CalibrateProfile measures a workload's real data ratios (mapper output
// per input byte, reducer output per consumed byte) by running the
// application concretely over a small generated sample, and returns the
// profile with the measured ratios substituted. This is the paper's
// model-refinement loop: plan against the workload's observed shape
// rather than nominal constants.
func CalibrateProfile(pf Profile, sampleObjects, bytesPerObject int, seed int64) (Profile, error) {
	cal, err := profiler.Calibrate(pf, profiler.Sample{
		Objects:        sampleObjects,
		BytesPerObject: bytesPerObject,
		Seed:           seed,
	})
	if err != nil {
		return Profile{}, err
	}
	return cal.Profile, nil
}

// Predict estimates a configuration's completion time and cost with the
// engine-faithful model, without executing anything.
func Predict(job Job, cfg Config) (jct time.Duration, cost USD, err error) {
	pred, err := model.NewExact(model.DefaultParams(job)).Predict(cfg)
	if err != nil {
		return 0, 0, err
	}
	return pred.JCT(), pred.TotalCost(), nil
}
