package mapreduce

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"astra/internal/flight"
	"astra/internal/lambda"
	"astra/internal/objectstore"
	"astra/internal/pricing"
	"astra/internal/simtime"
	"astra/internal/telemetry"
	"astra/internal/workload"
)

// Mode selects how a job's data is handled.
type Mode int

const (
	// Concrete runs real map/reduce code over real bytes.
	Concrete Mode = iota
	// Profiled runs size-only metadata through the same control flow,
	// charging compute and transfer from the workload profile. Used for
	// the 10-100 GB evaluation inputs.
	Profiled
)

// Config is one point in the paper's configuration space: the three
// memory allocations plus the two degree-of-parallelism knobs.
type Config struct {
	MapperMemMB    int
	CoordMemMB     int
	ReducerMemMB   int
	ObjsPerMapper  int
	ObjsPerReducer int
}

// String renders the config the way Table III presents allocations.
func (c Config) String() string {
	return fmt.Sprintf("mem(map/co/red)=%d/%d/%d MB, objs(map)=%d, objs(red)=%d",
		c.MapperMemMB, c.CoordMemMB, c.ReducerMemMB, c.ObjsPerMapper, c.ObjsPerReducer)
}

// Orchestrator selects who drives the reducing cascade.
type Orchestrator int

const (
	// CoordinatorLambda is the paper's choice: a coordinator function
	// writes state objects and invokes reducer waves (footnote 1 calls it
	// "more flexible and cost-efficient").
	CoordinatorLambda Orchestrator = iota
	// StepFunctions replaces the coordinator with a managed workflow:
	// no coordinator lambda, no state objects, but a fee and a latency
	// per state transition.
	StepFunctions
)

// JobSpec describes a submitted job: the workload, where its input lives,
// and the execution mode.
type JobSpec struct {
	Workload workload.Job
	// Bucket holds the input objects.
	Bucket string
	// InputKeys lists the input objects, in assignment order.
	InputKeys []string
	Mode      Mode
	// Orchestrator selects the reduce-phase driver (default: the
	// coordinator lambda).
	Orchestrator Orchestrator
	// IntermediateClass, if set, places the job's ephemeral data
	// (mapper outputs, reducer outputs, state objects) on that storage
	// class — e.g. objectstore.CacheClass() for a Redis-like tier —
	// instead of the store's default class.
	IntermediateClass *objectstore.Class
	// TaskRetries is how many times a failed mapper or reducer is
	// re-invoked before the job aborts. Failed attempts are still billed
	// (their duration ran). Zero means fail-fast.
	TaskRetries int
	// Telemetry, if set, receives platform counters (invocations, cold
	// starts, store traffic) and virtual-time phase spans for the run.
	// Observe-only: the simulated results are identical with or without
	// it.
	Telemetry *telemetry.Registry
	// Recorder, if set, captures the run's full event stream — every
	// invocation lifecycle transition, store request, compute interval
	// and phase window — for export and critical-path analysis (see
	// internal/flight). Observe-only, like Telemetry.
	Recorder *flight.Recorder
	// Injector, if set, is attached to the platform for fault injection:
	// it is consulted on every invocation attempt (internal/chaos
	// provides the standard implementation). Unlike Telemetry/Recorder a
	// nil Injector leaves any previously attached injector in place, so
	// tests driving the platform directly keep their hooks.
	Injector lambda.Injector
	// StoreInjector, if set, is attached to the object store for
	// request-level fault injection. Same attach semantics as Injector.
	StoreInjector objectstore.Injector
	// Speculation, if set, enables straggler mitigation: tasks running
	// past their predicted duration times the policy's multiplier get a
	// speculative backup, first finisher wins, losers are cancelled but
	// billed. See SpeculationPolicy.
	Speculation *SpeculationPolicy
	// QoS, if set, receives streaming QoS callbacks during the run: the
	// monitor follows the flight recorder incrementally and maintains
	// drift, deadline-risk and cost-burn state in virtual time.
	// Observe-only, like Telemetry and Recorder; it requires a Recorder
	// to have anything to read.
	QoS QoSMonitor
}

// PhaseTimes decomposes the job completion time the way Fig. 3 does.
type PhaseTimes struct {
	// Map is the mapping phase duration (T1: until the slowest mapper).
	Map time.Duration
	// CoordExclusive is the coordinator's own compute and state writes,
	// excluding the time it spends waiting on reducer steps (T2).
	CoordExclusive time.Duration
	// Reduce is the total reducing time across steps (TP).
	Reduce time.Duration
	// Steps holds each reducing step's duration.
	Steps []time.Duration
}

// CostBreakdown splits the job bill by source.
type CostBreakdown struct {
	// Lambda covers duration billing plus invocation fees (the W and I
	// terms).
	Lambda pricing.USD
	// Requests covers object-store GET/PUT charges (the U terms).
	Requests pricing.USD
	// Storage covers storage-duration charges accrued during the job
	// (the V terms).
	Storage pricing.USD
	// Workflow covers managed-orchestrator state-transition fees (zero
	// under the coordinator lambda).
	Workflow pricing.USD
}

// Total sums the bill.
func (c CostBreakdown) Total() pricing.USD {
	return c.Lambda + c.Requests + c.Storage + c.Workflow
}

// RunStats summarizes a run's platform activity: what the lambda control
// plane and the object store did on the job's behalf. It is derived from
// invocation records and store counters, so it is populated whether or
// not a telemetry registry was attached.
type RunStats struct {
	// Invocations counts every lambda execution, retries included.
	Invocations int
	// ColdStarts counts invocations that paid the cold-start penalty.
	ColdStarts int
	// Timeouts counts invocations killed at the platform deadline.
	Timeouts int
	// Errors counts invocations failing for any other reason.
	Errors int
	// TaskRetries counts driver- or coordinator-level re-invocations of
	// failed mappers and reducers.
	TaskRetries int
	// Canceled counts invocations intentionally killed as speculative
	// race losers (billed, but not failures).
	Canceled int
	// Throttles counts 429 rejections at the concurrency cap.
	Throttles int
	// PeakConcurrency is the high-water mark of simultaneous lambdas.
	PeakConcurrency int
	// Object-store traffic attributable to the run.
	StoreGets, StorePuts        int64
	StoreBytesIn, StoreBytesOut int64
}

// Report is the outcome of one executed job.
type Report struct {
	Config        Config
	Orchestration Orchestration
	// JCT is the end-to-end job completion time.
	JCT    time.Duration
	Phases PhaseTimes
	Cost   CostBreakdown
	// OutputKeys are the final objects (one per reducer of the last step;
	// a converged job has exactly one).
	OutputKeys []string
	// InterBucket is where intermediate and output objects live.
	InterBucket string
	// Records are the job's lambda invocation records, completion-ordered
	// (Record.Seq is strictly increasing; the driver asserts this
	// invariant).
	Records []lambda.Record
	// Events is the flight recorder's event stream for this run (nil when
	// no Recorder was attached to the JobSpec).
	Events []flight.Event
	// Predicted, when set, is the model's per-term stage breakdown for
	// Config — the astra layer attaches it to recorded runs so Audit can
	// diff prediction against measurement.
	Predicted *flight.Breakdown
	// PeakConcurrency is the job's high-water mark of simultaneous
	// lambdas.
	PeakConcurrency int
	// Stats summarizes platform activity; see RunStats.
	Stats RunStats
	// Resilience attributes the run's adversity: injected faults, retry
	// and speculation activity, and the billed cost of wasted attempts.
	Resilience Resilience
}

// DeadlineMet reports whether the run finished within a QoS deadline (the
// Eq. 20 constraint the planner promised).
func (r *Report) DeadlineMet(deadline time.Duration) bool { return r.JCT <= deadline }

// Telemetry returns the run's platform-activity summary.
func (r *Report) Telemetry() RunStats { return r.Stats }

// Driver executes MapReduce jobs on a Lambda platform.
type Driver struct {
	pl  *lambda.Platform
	seq int
}

// NewDriver creates a driver for the platform.
func NewDriver(pl *lambda.Platform) *Driver { return &Driver{pl: pl} }

// taskPayload is a mapper's or reducer's input: the objects to read and
// the key its one output object is written under.
type taskPayload struct {
	Keys []string `json:"keys"`
	Out  string   `json:"out"`
}

type span struct{ start, end simtime.Time }

// jobRun is the shared state of one executing job, closed over by its
// handlers.
type jobRun struct {
	spec        JobSpec
	cfg         Config
	orch        Orchestration
	interBucket string
	app         App

	mapOutKeys  []string
	taskRetries int
	stepSpans   []span
	// final is the last reducing step: launched by the coordinator and
	// awaited by the driver, or the last Step Functions step.
	final *wave

	// policy is the normalized speculation policy (nil = disabled).
	policy *SpeculationPolicy
	// res accumulates the report's resilience section.
	res Resilience
	// outstanding holds cancelled race losers still running at job end;
	// they are drained (for billing) after the JCT is captured.
	outstanding []*lambda.Invocation
}

// Run executes the job under the given configuration and reports timing
// and cost. It must be called from inside a simulation process.
func (d *Driver) Run(p *simtime.Proc, spec JobSpec, cfg Config) (*Report, error) {
	if err := spec.Workload.Validate(); err != nil {
		return nil, err
	}
	if len(spec.InputKeys) != spec.Workload.NumObjects {
		return nil, fmt.Errorf("mapreduce: %d input keys for %d objects",
			len(spec.InputKeys), spec.Workload.NumObjects)
	}
	orch, err := OrchestrateFor(spec.Workload.Profile, spec.Workload.NumObjects, cfg.ObjsPerMapper, cfg.ObjsPerReducer)
	if err != nil {
		return nil, err
	}

	run := &jobRun{spec: spec, cfg: cfg, orch: orch}
	if spec.Speculation != nil {
		pol := spec.Speculation.normalized()
		run.policy = &pol
	}
	if spec.Mode == Concrete {
		app, err := AppFor(spec.Workload.Profile)
		if err != nil {
			return nil, err
		}
		run.app = app
	}

	d.seq++
	jobID := d.seq
	run.interBucket = fmt.Sprintf("job%04d-inter", jobID)
	d.pl.Store().CreateBucket(run.interBucket)
	if spec.IntermediateClass != nil {
		d.pl.Store().SetBucketClass(run.interBucket, *spec.IntermediateClass)
	}

	mapperFn := fmt.Sprintf("job%04d-mapper", jobID)
	coordFn := fmt.Sprintf("job%04d-coordinator", jobID)
	reducerFn := fmt.Sprintf("job%04d-reducer", jobID)
	if _, err := d.pl.Register(mapperFn, cfg.MapperMemMB, taskHandler(run, spec.Bucket, false)); err != nil {
		return nil, fmt.Errorf("mapreduce: mapper: %w", err)
	}
	if spec.Orchestrator == CoordinatorLambda {
		coord, err := d.pl.Register(coordFn, cfg.CoordMemMB, coordHandler(run, reducerFn))
		if err != nil {
			return nil, fmt.Errorf("mapreduce: coordinator: %w", err)
		}
		// The coordinator is a logical orchestrator lambda: real
		// deployments re-invoke it per step (or use Step Functions), so
		// the per-sandbox timeout does not bound its total lifetime. It
		// is still billed for the full span, per Eq. 14.
		coord.Timeout = 10000 * time.Hour
	}
	if _, err := d.pl.Register(reducerFn, cfg.ReducerMemMB, taskHandler(run, run.interBucket, true)); err != nil {
		return nil, fmt.Errorf("mapreduce: reducer: %w", err)
	}

	store := d.pl.Store()
	// The registry (or nil, detaching any previous job's) observes the
	// platform for the duration of this run; likewise the flight recorder.
	d.pl.SetTelemetry(spec.Telemetry)
	store.SetTelemetry(spec.Telemetry)
	d.pl.SetFlightRecorder(spec.Recorder)
	store.SetFlightRecorder(spec.Recorder)
	if spec.Injector != nil {
		d.pl.SetInjector(spec.Injector)
	}
	if spec.StoreInjector != nil {
		store.SetInjector(spec.StoreInjector)
	}
	chaos0 := d.pl.ChaosCounters()
	storeInj0 := store.InjectedFaults()
	evBase := spec.Recorder.Seq()
	recBase := len(d.pl.Records())
	bill0 := store.Bill()
	store0 := store.Metrics()
	throttles0 := d.pl.Throttles()
	peak0 := d.pl.PeakConcurrency()
	t0 := p.Now()
	if spec.QoS != nil {
		spec.QoS.BeginRun(spec.Recorder, t0, qosStages(spec, orch))
	}

	// --- Mapping phase: mappers dispatched in a loop (each dispatch
	// costs the invoke-API latency), then awaited together. ---
	rn := procRunner{d, p}
	maps, err := launch(rn, run, mapperFn, "mapreduce: mapper", orch.MapperLoads, spec.InputKeys,
		"map-%d", "map/part-%05d")
	if err != nil {
		return nil, err
	}
	if err := await(rn, run, maps, run.policy.mapTask()); err != nil {
		return nil, err
	}
	run.mapOutKeys = maps.outKeys
	mapEnd := p.Now()
	if spec.QoS != nil {
		spec.QoS.Poll(mapEnd)
	}

	// --- Reducing phase, driven by the chosen orchestrator. ---
	var coordExclusive time.Duration
	var workflowFee pricing.USD
	var coordSpan span
	switch spec.Orchestrator {
	case StepFunctions:
		coordExclusive, workflowFee, err = d.reduceViaStepFunctions(p, run, reducerFn)
		if err != nil {
			return nil, err
		}
	default:
		coordStart := p.Now()
		if _, err := d.pl.InvokeLabeled(p, coordFn, "coordinator", nil); err != nil {
			return nil, fmt.Errorf("mapreduce: coordinator: %w", err)
		}
		coordEnd := p.Now()
		if spec.QoS != nil {
			spec.QoS.Poll(coordEnd)
		}

		// Wait for the last step's reducers, launched asynchronously by
		// the coordinator.
		if err := await(rn, run, run.final, run.policy.stepTask(orch.NumSteps()-1)); err != nil {
			return nil, err
		}
		run.stepDone(run.final.start, p.Now())

		// Coordinator-exclusive time: its wall span minus the steps it
		// sat waiting on (all but the async-launched last one) and minus
		// its overlap with the final step (the final reducers' dispatch
		// loop, which the final step span already covers).
		waited := time.Duration(0)
		for _, s := range run.stepSpans[:len(run.stepSpans)-1] {
			waited += s.end - s.start
		}
		finalOverlap := coordEnd - run.final.start
		coordExclusive = (coordEnd - coordStart) - waited - finalOverlap
		coordSpan = span{coordStart, coordEnd}
	}
	end := p.Now()

	// Cancelled race losers may still be running (a loser dies at its
	// next platform API call, which can fall after the job end). Drain
	// them so their billing records and store requests land in this
	// report — losers are cancelled but billed. The JCT was captured
	// above; the drain advances only the billing clock.
	for _, iv := range run.outstanding {
		_, _ = iv.Wait(p)
	}

	// --- Assemble the report. ---
	rep := &Report{
		Config:        cfg,
		Orchestration: orch,
		JCT:           end - t0,
		OutputKeys:    run.final.outKeys,
		InterBucket:   run.interBucket,
	}
	rep.Phases.Map = mapEnd - t0
	for _, s := range run.stepSpans {
		d := s.end - s.start
		rep.Phases.Steps = append(rep.Phases.Steps, d)
		rep.Phases.Reduce += d
	}
	rep.Phases.CoordExclusive = coordExclusive

	recs := d.pl.Records()[recBase:]
	// Completion-order invariant: records append as invocations finish,
	// so their Seq numbers must be strictly increasing. A violation means
	// platform bookkeeping broke — fail loudly rather than export a
	// nondeterministic trace.
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			return nil, fmt.Errorf("mapreduce: internal: records out of completion order (seq %d after %d)",
				recs[i].Seq, recs[i-1].Seq)
		}
	}
	rep.Records = append(rep.Records, recs...)
	var lambdaCost pricing.USD
	for _, r := range recs {
		lambdaCost += r.Cost
	}
	// Bill through the store so bucket storage classes (e.g. cache-tier
	// intermediates) price themselves.
	bill := store.Bill()
	rep.Cost = CostBreakdown{
		Lambda:   lambdaCost,
		Requests: bill.Requests - bill0.Requests,
		Storage:  bill.Storage - bill0.Storage,
		Workflow: workflowFee,
	}
	if pk := d.pl.PeakConcurrency(); pk > peak0 {
		rep.PeakConcurrency = pk
	}

	// --- Platform-activity summary (always computed) and virtual-time
	// phase spans (when a registry is attached). ---
	st := RunStats{
		TaskRetries:     run.taskRetries,
		Throttles:       d.pl.Throttles() - throttles0,
		PeakConcurrency: rep.PeakConcurrency,
	}
	for _, r := range recs {
		st.Invocations++
		if r.Cold {
			st.ColdStarts++
		}
		switch {
		case errors.Is(r.Err, lambda.ErrTimeout):
			st.Timeouts++
		case errors.Is(r.Err, lambda.ErrCanceled):
			st.Canceled++
		case r.Err != nil:
			st.Errors++
		}
	}
	sm := store.Metrics().Sub(store0)
	st.StoreGets, st.StorePuts = sm.Gets, sm.Puts
	st.StoreBytesIn, st.StoreBytesOut = sm.BytesIn, sm.BytesOut
	rep.Stats = st

	// --- Resilience section: what the injector did, what recovery cost. ---
	cc := d.pl.ChaosCounters().Sub(chaos0)
	run.res.LambdaFaults = cc.Faults
	run.res.FailedBeforeStart = cc.FailedBeforeStart
	run.res.FailedMidFlight = cc.FailedMidFlight
	run.res.Straggled = cc.Straggled
	run.res.ForcedColdStarts = cc.ForcedColdStarts
	run.res.InjectedThrottles = cc.ThrottleRejects
	run.res.StoreFaults = store.InjectedFaults() - storeInj0
	run.res.TaskRetries = run.taskRetries
	for _, r := range recs {
		if r.Err != nil {
			run.res.WastedCost += r.Cost
		}
	}
	rep.Resilience = run.res

	if tel := spec.Telemetry; tel != nil {
		tel.RecordVirtual("run", t0, end)
		tel.RecordVirtual("run/map", t0, mapEnd)
		if spec.Orchestrator == CoordinatorLambda {
			tel.RecordVirtual("run/coordinator", coordSpan.start, coordSpan.end)
		}
		for i, s := range run.stepSpans {
			tel.RecordVirtual(fmt.Sprintf("run/step-%02d", i), s.start, s.end)
		}
	}
	if rec := spec.Recorder; rec != nil {
		// Phase markers anchor the critical-path analyzer; emitted at run
		// end (in a fixed order) so the windows are final.
		rec.Emit(flight.Event{Kind: flight.KindPhase, Name: "map", Start: t0, Time: mapEnd})
		if spec.Orchestrator == CoordinatorLambda {
			rec.Emit(flight.Event{Kind: flight.KindPhase, Name: "coordinator",
				Start: coordSpan.start, Time: coordSpan.end})
		}
		for i, s := range run.stepSpans {
			rec.Emit(flight.Event{Kind: flight.KindPhase,
				Name: fmt.Sprintf("step-%02d", i), Start: s.start, Time: s.end})
		}
		rec.Emit(flight.Event{Kind: flight.KindPhase, Name: "run", Start: t0, Time: end})
		rep.Events = rec.EventsSince(evBase)
	}
	if spec.QoS != nil {
		// The run's events are final (loser drain and phase markers
		// included): let the monitor fold the remainder and settle its
		// ledger. Risk never advances past end; post-end billing (drained
		// losers) still counts toward cost burn.
		spec.QoS.EndRun(end)
	}
	return rep, nil
}

// wave is one dispatched set of tasks of one function: the mapping phase
// or one reducing step. Task i reads inKeys[i] and writes outKeys[i]
// (through attempt keys under a speculation policy).
type wave struct {
	fn string
	// noun prefixes a failed task's error: "<noun> <task>: <cause>".
	noun string
	// start is when the first task was dispatched: the step span and the
	// speculation deadline run from it.
	start   simtime.Time
	labels  []string
	inKeys  [][]string
	outKeys []string
	bodies  [][]byte
	invs    []*lambda.Invocation
}

// launch dispatches one fn task per worker of split, in order: task i
// reads the next split.Load(i) keys of in, and label and outKey are the
// printf formats of its label and output key, applied to i.
func launch(rn runner, run *jobRun, fn, noun string, split Split, in []string, label, outKey string) (*wave, error) {
	n := split.Count()
	w := &wave{fn: fn, noun: noun, start: rn.now(), labels: make([]string, n),
		inKeys: make([][]string, n), outKeys: make([]string, n),
		bodies: make([][]byte, n), invs: make([]*lambda.Invocation, n)}
	off := 0
	for i := range w.invs {
		load := split.Load(i)
		w.inKeys[i] = in[off : off+load]
		off += load
		w.outKeys[i] = fmt.Sprintf(outKey, i)
		w.labels[i] = fmt.Sprintf(label, i)
		out := w.outKeys[i]
		if run.policy != nil {
			out = attemptKey(out, 0)
		}
		body, err := json.Marshal(taskPayload{Keys: w.inKeys[i], Out: out})
		if err != nil {
			return nil, err
		}
		w.bodies[i] = body
		w.invs[i] = rn.invoke(fn, w.labels[i], body)
	}
	return w, nil
}

// await resolves w's tasks in order. Under a speculation policy each task
// races backups (awaitSpeculative) against pred, the predicted task
// duration; otherwise a failed task is re-run through rn.call up to the
// job's retry budget, each failed attempt staying billed.
func await(rn runner, run *jobRun, w *wave, pred time.Duration) error {
	for i, iv := range w.invs {
		var err error
		if run.policy != nil {
			err = awaitSpeculative(rn, run, w, i, pred)
		} else {
			_, err = rn.wait(iv)
			for attempt := 0; err != nil && attempt < run.spec.TaskRetries; attempt++ {
				run.taskRetries++
				err = rn.call(w.fn, w.labels[i], w.bodies[i])
			}
		}
		if err != nil {
			return fmt.Errorf("%s %d: %w", w.noun, i, err)
		}
	}
	return nil
}

// stepDone closes a reducing step that started at start and lets the QoS
// monitor fold it.
func (run *jobRun) stepDone(start, now simtime.Time) {
	run.stepSpans = append(run.stepSpans, span{start, now})
	if run.spec.QoS != nil {
		run.spec.QoS.Poll(now)
	}
}

// reduceViaStepFunctions drives the reducing cascade as a managed
// workflow (footnote 1's alternative): no coordinator lambda and no state
// objects, but each step barrier pays a state-transition delay, and the
// execution is billed per transition — one for start and end, one per
// task state (mappers and reducers), one per step barrier. It returns the
// orchestration-exclusive time (the transition delays) and the workflow
// fee.
func (d *Driver) reduceViaStepFunctions(p *simtime.Proc, run *jobRun, reducerFn string) (time.Duration, pricing.USD, error) {
	sf := d.pl.Sheet().StepFunctions
	rn := procRunner{d, p}
	orchTime := time.Duration(0)
	prevKeys := run.mapOutKeys
	for pi := 0; pi < run.orch.NumSteps(); pi++ {
		p.Sleep(sf.TransitionLatency)
		orchTime += sf.TransitionLatency
		w, err := launch(rn, run, reducerFn, fmt.Sprintf("mapreduce: step %d reducer", pi),
			run.orch.Step(pi), prevKeys, fmt.Sprintf("red-%d-%%d", pi), fmt.Sprintf("red/%02d/part-%%05d", pi))
		if err != nil {
			return 0, 0, err
		}
		if err := await(rn, run, w, run.policy.stepTask(pi)); err != nil {
			return 0, 0, err
		}
		run.stepDone(w.start, p.Now())
		prevKeys = w.outKeys
		run.final = w
	}
	transitions := 2 + run.orch.Mappers() + run.orch.NumSteps() + run.orch.Reducers()
	return orchTime, sf.TransitionCost(transitions), nil
}

// taskHandler builds the mapper (reduce false) or reducer lambda: fetch
// the assigned objects from bucket, compute, emit one intermediate object.
func taskHandler(run *jobRun, bucket string, reduce bool) lambda.Handler {
	pf := run.spec.Workload.Profile
	ratio := pf.MapOutputRatio
	if reduce {
		ratio = pf.ReduceOutputRatio
	}
	return func(ctx *lambda.Ctx) ([]byte, error) {
		var pay taskPayload
		if err := json.Unmarshal(ctx.Payload(), &pay); err != nil {
			return nil, err
		}
		var totalIn int64
		var bodies [][]byte
		for _, key := range pay.Keys {
			obj, err := ctx.Get(bucket, key)
			if err != nil {
				return nil, err
			}
			totalIn += obj.Size
			if run.spec.Mode == Concrete {
				bodies = append(bodies, obj.Data)
			}
		}
		ctx.WorkBytes(totalIn, pf.USecPerMB)
		if run.spec.Mode == Concrete {
			compute := run.app.Map
			if reduce {
				compute = run.app.Reduce
			}
			out, err := compute(bodies)
			if err != nil {
				return nil, err
			}
			return nil, ctx.Put(run.interBucket, pay.Out, out)
		}
		return nil, ctx.PutProfiled(run.interBucket, pay.Out, int64(float64(totalIn)*ratio))
	}
}

// coordHandler builds the coordinator lambda: it derives the reducing
// plan (Table II), writes a state object before each step, drives steps
// 1..P-1 synchronously and launches step P asynchronously, so its billed
// lifetime spans the first P-1 steps exactly as Eq. 14 charges it.
func coordHandler(run *jobRun, reducerFn string) lambda.Handler {
	return func(ctx *lambda.Ctx) ([]byte, error) {
		ctx.Work(run.spec.Workload.Profile.CoordSecPerObject * float64(run.orch.Mappers()))

		rn := ctxRunner{ctx}
		prevKeys := run.mapOutKeys
		for pi := 0; pi < run.orch.NumSteps(); pi++ {
			if err := ctx.PutProfiled(run.interBucket, fmt.Sprintf("state/step-%02d", pi), StateObjectBytes); err != nil {
				return nil, err
			}
			last := pi == run.orch.NumSteps()-1
			noun := fmt.Sprintf("step %d reducer", pi)
			if last {
				noun = "mapreduce: final-step reducer"
			}
			w, err := launch(rn, run, reducerFn, noun, run.orch.Step(pi), prevKeys,
				fmt.Sprintf("red-%d-%%d", pi), fmt.Sprintf("red/%02d/part-%%05d", pi))
			if err != nil {
				return nil, err
			}
			if last {
				run.final = w
				break
			}
			if err := await(rn, run, w, run.policy.stepTask(pi)); err != nil {
				return nil, err
			}
			run.stepDone(w.start, ctx.Now())
			prevKeys = w.outKeys
		}
		return nil, nil
	}
}
