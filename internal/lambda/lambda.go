// Package lambda implements the FaaS substitute: a virtual-time serverless
// platform with the semantics the Astra models assume of AWS Lambda.
//
//   - Memory tiers from the price sheet (128-3008 MB in 64 MB steps).
//   - Compute speed proportional to allocated memory, with a configurable
//     flattening point (real Lambda stops adding single-thread speed around
//     1792 MB when the second vCPU arrives — this is what makes memory
//     tiers above ~1.5 GB unattractive in the paper's Fig. 6).
//   - An account-level concurrency limit (1000) that queues invocations
//     FIFO, the way the exact model's waves assume.
//   - Cold starts against a per-function warm-container pool with a
//     keep-alive TTL.
//   - A hard execution timeout (900 s) enforced at every platform API
//     call the handler makes.
//   - Per-invocation billing records: duration rounded up to the billing
//     quantum x allocated GB x GB-second price, plus the invocation fee.
//
// Handlers execute real Go code; only time is virtual. Compute cost is
// declared through Ctx.Work in reference-seconds, which the platform
// scales by the memory-dependent speed factor.
package lambda

import (
	"errors"
	"fmt"
	"time"

	"astra/internal/flight"
	"astra/internal/objectstore"
	"astra/internal/pricing"
	"astra/internal/simtime"
	"astra/internal/telemetry"
)

// Errors returned by the platform.
var (
	ErrTimeout         = errors.New("lambda: function timed out")
	ErrThrottled       = errors.New("lambda: concurrency limit exceeded (429)")
	ErrUnknownFunction = errors.New("lambda: unknown function")
	ErrBadMemory       = errors.New("lambda: invalid memory size")
)

// Handler is user function code. It returns a response payload. Returning
// an error fails the invocation; the duration is still billed.
type Handler func(ctx *Ctx) ([]byte, error)

// SpeedModel maps a memory allocation to a compute speed factor.
type SpeedModel struct {
	// RefMemMB is the tier at which Ctx.Work's reference seconds apply
	// unscaled (workload profiles are calibrated at this tier).
	RefMemMB int
	// FloorMemMB is the allocation beyond which single-thread speed stops
	// improving. Zero disables flattening (pure proportionality).
	FloorMemMB int
}

// Factor reports the multiplier applied to reference compute time at the
// given memory size: <1 is faster than the reference tier.
func (m SpeedModel) Factor(memMB int) float64 {
	ref := m.RefMemMB
	if ref <= 0 {
		ref = 1024
	}
	eff := memMB
	if m.FloorMemMB > 0 && eff > m.FloorMemMB {
		eff = m.FloorMemMB
	}
	if eff <= 0 {
		eff = 1
	}
	return float64(ref) / float64(eff)
}

// Config parameterizes the platform.
type Config struct {
	Sheet *pricing.Sheet
	Speed SpeedModel
	// ColdStart is the unbilled initialization penalty when no warm
	// container is available.
	ColdStart time.Duration
	// DispatchLatency is the invoke-API round trip paid by the CALLER
	// before each invocation starts. Callers that launch a wave of
	// lambdas in a loop (the driver launching mappers, the coordinator
	// launching reducers) therefore serialize this cost — the mechanism
	// that makes very high degrees of parallelism expensive in practice.
	DispatchLatency time.Duration
	// KeepAlive is how long an idle container stays warm.
	KeepAlive time.Duration
	// DisableTimeout lifts the per-function execution deadline. The
	// paper's optimization model (Sec. IV) carries no per-lambda duration
	// constraint, so the large profiled experiments run with this set;
	// realistic deployments keep enforcement on.
	DisableTimeout bool
	// MaxRetries bounds automatic retries of an invocation rejected by an
	// injected 429 window (Injector.ThrottleInjected).
	MaxRetries int
	// RetryBackoff is the (deterministic, linear) backoff between retries.
	RetryBackoff time.Duration
}

func (c Config) withDefaults() Config {
	if c.Sheet == nil {
		c.Sheet = pricing.AWS()
	}
	if c.Speed.RefMemMB == 0 {
		c.Speed.RefMemMB = 1024
	}
	if c.Speed.FloorMemMB == 0 {
		c.Speed.FloorMemMB = 1792
	}
	if c.KeepAlive == 0 {
		c.KeepAlive = 10 * time.Minute
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	return c
}

// Function is a registered function: code plus configuration.
type Function struct {
	Name     string
	MemoryMB int
	Timeout  time.Duration
	Handler  Handler

	warm []simtime.Time // expiry times of idle warm containers (FIFO)
}

// Record describes one completed (or failed) invocation.
type Record struct {
	// Seq is a stable, monotonically-assigned completion sequence number
	// (1-based): records append in completion order, so Seq is strictly
	// increasing across Records() and gives exports a deterministic
	// tiebreak beyond (Start, Label, Function).
	Seq      int64
	Function string
	Label    string
	MemoryMB int
	Cold     bool
	Queued   time.Duration // time spent waiting for concurrency
	Start    simtime.Time  // handler start (after cold start)
	End      simtime.Time
	Billed   time.Duration
	Cost     pricing.USD // duration cost + invocation fee
	Err      error
}

// Platform is the simulated FaaS control plane.
type Platform struct {
	sched *simtime.Scheduler
	store *objectstore.Store
	cfg   Config

	concurrency *simtime.Semaphore
	funcs       map[string]*Function
	records     []Record
	recSeq      int64
	tel         *telemetry.Registry
	rec         *flight.Recorder

	inj      Injector
	attempts map[string]int // (function \x00 label) -> dispatches so far
	chaos    ChaosCounters
}

// New creates a platform bound to the scheduler and object store.
func New(sched *simtime.Scheduler, store *objectstore.Store, cfg Config) *Platform {
	cfg = cfg.withDefaults()
	return &Platform{
		sched:       sched,
		store:       store,
		cfg:         cfg,
		concurrency: sched.NewSemaphore(cfg.Sheet.Lambda.MaxConcurrency),
		funcs:       make(map[string]*Function),
		attempts:    make(map[string]int),
	}
}

// Sheet exposes the price sheet the platform bills against.
func (pl *Platform) Sheet() *pricing.Sheet { return pl.cfg.Sheet }

// Store exposes the object store functions read and write through.
func (pl *Platform) Store() *objectstore.Store { return pl.store }

// Register installs a function. Memory must be a valid tier and the
// timeout must respect the platform limit.
func (pl *Platform) Register(name string, memMB int, handler Handler) (*Function, error) {
	l := pl.cfg.Sheet.Lambda
	if !l.ValidMemory(memMB) {
		return nil, fmt.Errorf("%w: %d MB", ErrBadMemory, memMB)
	}
	timeout := l.Timeout
	if pl.cfg.DisableTimeout {
		timeout = 10000 * time.Hour
	}
	f := &Function{Name: name, MemoryMB: memMB, Timeout: timeout, Handler: handler}
	pl.funcs[name] = f
	return f, nil
}

// Records returns all invocation records so far, in completion order.
func (pl *Platform) Records() []Record { return pl.records }

// SetTelemetry attaches a registry that receives per-invocation counters
// and latency histograms (see telemetry.MLambda*). Telemetry is
// observe-only: the simulation's virtual-time results are identical with
// or without it. A nil registry detaches.
func (pl *Platform) SetTelemetry(reg *telemetry.Registry) { pl.tel = reg }

// SetFlightRecorder attaches a flight recorder that receives every
// invocation lifecycle transition as a structured virtual-time event.
// Like telemetry, recording is observe-only: the simulation's results are
// bit-identical with or without it. A nil recorder detaches.
func (pl *Platform) SetFlightRecorder(rec *flight.Recorder) { pl.rec = rec }

// PeakConcurrency reports the high-water mark of simultaneous executions
// since the last RestartPeak.
func (pl *Platform) PeakConcurrency() int { return pl.concurrency.PeakInUse() }

// RestartPeak begins a new high-water mark at the executions in flight
// now, so a run that calls it first reads its own peak.
func (pl *Platform) RestartPeak() { pl.concurrency.RestartPeak() }

// takeWarm pops a still-warm container for f, expiring stale entries.
func (pl *Platform) takeWarm(f *Function) bool {
	now := pl.sched.Now()
	for len(f.warm) > 0 {
		exp := f.warm[0]
		f.warm = f.warm[1:]
		if exp > now {
			return true
		}
	}
	return false
}

// Invoke runs a registered function synchronously in the calling process,
// returning its response payload. Queueing, cold start, execution and
// billing all happen on the virtual clock.
func (pl *Platform) Invoke(p *simtime.Proc, name string, payload []byte) ([]byte, error) {
	return pl.InvokeLabeled(p, name, "", payload)
}

// InvokeLabeled is Invoke with a label recorded for tracing.
func (pl *Platform) InvokeLabeled(p *simtime.Proc, name, label string, payload []byte) ([]byte, error) {
	dispStart := pl.sched.Now()
	if pl.cfg.DispatchLatency > 0 {
		p.Sleep(pl.cfg.DispatchLatency)
	}
	return pl.invokeDispatched(p, name, label, payload, pl.recordScheduled(p, name, label, dispStart), nil)
}

// recordScheduled allocates an invocation identity and emits the
// scheduled event covering the dispatch round trip. Returns 0 (no
// identity) without a recorder.
func (pl *Platform) recordScheduled(p *simtime.Proc, name, label string, dispStart simtime.Time) int64 {
	rec := pl.rec
	if rec == nil {
		return 0
	}
	inv := rec.NextInvocation()
	rec.Emit(flight.Event{
		Kind: flight.KindInvokeScheduled, Time: pl.sched.Now(), Start: dispStart,
		Inv: inv, By: rec.InvocationOf(p), Function: name, Label: label,
	})
	return inv
}

// chaosEvent records one applied injector effect into the flight recorder.
func (pl *Platform) chaosEvent(inv int64, fn, label, effect, rule string) {
	if rec := pl.rec; rec != nil {
		rec.Emit(flight.Event{Kind: flight.KindChaosFault, Time: pl.sched.Now(),
			Inv: inv, Function: fn, Label: label, Name: effect, Rule: rule})
	}
}

// invokeDispatched runs an invocation whose dispatch latency has already
// been paid by the caller; inv is its flight-recorder identity (0 without
// a recorder) and cancel the async handle's cancel cell (nil for
// synchronous invokes).
func (pl *Platform) invokeDispatched(p *simtime.Proc, name, label string, payload []byte, inv int64, cancel *cancelCell) ([]byte, error) {
	f, ok := pl.funcs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownFunction, name)
	}

	// Consult the fault injector under this attempt's stable identity.
	var flt InvokeFault
	var ref InvokeRef
	if pl.inj != nil {
		ak := name + "\x00" + label
		ref = InvokeRef{Function: name, Label: label, Attempt: pl.attempts[ak]}
		pl.attempts[ak]++
		var faulted bool
		if flt, faulted = pl.inj.InvokeFault(ref, pl.sched.Now()); faulted {
			pl.chaos.Faults++
			pl.tel.Counter(telemetry.MChaosFaults).Inc()
			pl.tel.Counter(telemetry.MChaosLambdaFaults).Inc()
		}
	}

	if flt.FailBeforeStart {
		// Rejected at admission: no sandbox, no duration — only the
		// invocation fee is billed.
		pl.chaos.FailedBeforeStart++
		pl.chaosEvent(inv, f.Name, label, "fail_before_start", flt.Rule)
		err := flt.errFor("failed before start")
		now := pl.sched.Now()
		pl.settle(inv, Record{Function: f.Name, Label: label, MemoryMB: f.MemoryMB,
			Start: now, End: now, Err: err})
		return nil, err
	}

	// Injected throttle windows reject 429-style regardless of the real
	// concurrency level, subject to the retry policy.
	if pl.inj != nil {
		for ta := 0; pl.inj.ThrottleInjected(ref, pl.sched.Now()); ta++ {
			pl.chaos.ThrottleRejects++
			pl.tel.Counter(telemetry.MLambdaThrottles).Inc()
			pl.tel.Counter(telemetry.MChaosThrottleRejects).Inc()
			pl.chaosEvent(inv, f.Name, label, "throttle", "")
			if rec := pl.rec; rec != nil {
				rec.Emit(flight.Event{Kind: flight.KindInvokeThrottled, Time: pl.sched.Now(),
					Inv: inv, Function: f.Name, Label: label})
			}
			if ta >= pl.cfg.MaxRetries {
				return nil, ErrThrottled
			}
			pl.tel.Counter(telemetry.MLambdaRetries).Inc()
			if rec := pl.rec; rec != nil {
				rec.Emit(flight.Event{Kind: flight.KindInvokeRetry, Time: pl.sched.Now(),
					Inv: inv, Function: f.Name, Label: label})
			}
			p.Sleep(time.Duration(ta+1) * pl.cfg.RetryBackoff)
		}
	}

	// The cap queues FIFO, as the exact model's waves assume.
	enqueue := pl.sched.Now()
	pl.concurrency.Acquire(p, 1)
	defer pl.concurrency.Release(1)
	queued := pl.sched.Now() - enqueue
	if queued > 0 {
		if rec := pl.rec; rec != nil {
			rec.Emit(flight.Event{Kind: flight.KindInvokeQueued, Time: enqueue + queued,
				Start: enqueue, Inv: inv, Function: f.Name, Label: label})
		}
	}

	var cold bool
	if flt.ForceCold {
		cold = true
		pl.chaos.ForcedColdStarts++
		pl.tel.Counter(telemetry.MChaosForcedColdStarts).Inc()
		pl.chaosEvent(inv, f.Name, label, "cold_start", flt.Rule)
	} else {
		cold = !pl.takeWarm(f)
	}
	if cold {
		coldFrom := pl.sched.Now()
		if pl.cfg.ColdStart > 0 {
			p.Sleep(pl.cfg.ColdStart)
		}
		if rec := pl.rec; rec != nil {
			rec.Emit(flight.Event{Kind: flight.KindInvokeColdStart, Time: pl.sched.Now(),
				Start: coldFrom, Inv: inv, Function: f.Name, Label: label})
		}
	}

	start := pl.sched.Now()
	ctx := &Ctx{
		platform: pl,
		fn:       f,
		proc:     p,
		payload:  payload,
		deadline: start + f.Timeout,
		cancel:   cancel,
	}
	if flt.Straggle > 1 {
		ctx.straggle = flt.Straggle
		pl.chaos.Straggled++
		pl.tel.Counter(telemetry.MChaosStraggles).Inc()
		pl.chaosEvent(inv, f.Name, label, "straggle", flt.Rule)
	}
	if flt.FailMidFlight {
		ctx.failAtCall = flt.FailAtCall
		if ctx.failAtCall <= 0 {
			ctx.failAtCall = 1
		}
		ctx.injectErr = flt.errFor("killed mid-flight")
		ctx.injectRule = flt.Rule
	}
	if rec := pl.rec; rec != nil {
		rec.Emit(flight.Event{Kind: flight.KindInvokeRunning, Time: start,
			Inv: inv, Function: f.Name, Label: label, MemoryMB: f.MemoryMB, Cold: cold})
		rec.SetScope(p, inv)
	}
	var resp []byte
	var err error
	if ctx.cancel != nil && ctx.cancel.requested {
		// Canceled before the handler started: nothing ran, nothing billed
		// beyond the fee below (end == start).
		err = ErrCanceled
	} else {
		resp, err = pl.runHandler(ctx)
	}
	pl.rec.ClearScope(p)
	if flt.FailMidFlight && err == nil {
		// The handler made fewer platform calls than the injected kill
		// point: fail it on return instead. The full duration is billed.
		resp, err = nil, ctx.injectErr
		pl.chaos.FailedMidFlight++
		pl.chaosEvent(inv, f.Name, label, "fail_mid_flight", flt.Rule)
	}
	end := pl.sched.Now()
	if errors.Is(err, ErrTimeout) {
		// The platform kills the sandbox at the deadline; bill exactly the
		// timeout regardless of how far past it the handler's last
		// blocking call landed.
		end = ctx.deadline
	}

	pl.settle(inv, Record{Function: f.Name, Label: label, MemoryMB: f.MemoryMB,
		Cold: cold, Queued: queued, Start: start, End: end, Err: err})
	if tel := pl.tel; tel != nil {
		tel.Histogram(telemetry.MLambdaDurationSeconds, telemetry.DurationBuckets).Observe((end - start).Seconds())
		tel.Histogram(telemetry.MLambdaQueuedSeconds, telemetry.DurationBuckets).Observe(queued.Seconds())
		tel.Gauge(telemetry.MLambdaConcurrencyPeak).SetMax(int64(pl.concurrency.PeakInUse()))
	}

	// Container returns to the warm pool — unless it was killed by an
	// injected fault or a cancellation, in which case the sandbox is gone.
	if !errors.Is(err, ErrInjected) && !errors.Is(err, ErrCanceled) {
		f.warm = append(f.warm, pl.sched.Now()+pl.cfg.KeepAlive)
	}
	return resp, err
}

// settle closes one invocation, whether it ran or failed before start:
// it bills r's [Start, End] (zero duration bills only the invocation fee),
// appends it to the records under the next Seq, and books its terminal
// flight event and its telemetry counters.
func (pl *Platform) settle(inv int64, r Record) {
	l := pl.cfg.Sheet.Lambda
	pl.recSeq++
	r.Seq = pl.recSeq
	r.Billed = l.BilledDuration(r.End - r.Start)
	r.Cost = l.DurationCost(r.MemoryMB, r.End-r.Start) + l.InvocationCost(1)
	pl.records = append(pl.records, r)

	kind, counter := flight.KindInvokeDone, ""
	switch {
	case errors.Is(r.Err, ErrTimeout):
		kind, counter = flight.KindInvokeTimeout, telemetry.MLambdaTimeouts
	case errors.Is(r.Err, ErrCanceled):
		// Intentional kills (speculative losers) are not failures; the
		// driver counts them under astra_speculation_*.
		kind = flight.KindInvokeCanceled
	case r.Err != nil:
		kind, counter = flight.KindInvokeError, telemetry.MLambdaErrors
	}
	if rec := pl.rec; rec != nil {
		errMsg := ""
		if r.Err != nil {
			errMsg = r.Err.Error()
		}
		rec.Emit(flight.Event{Kind: kind, Time: r.End, Start: r.Start,
			Inv: inv, Rec: r.Seq, Function: r.Function, Label: r.Label,
			MemoryMB: r.MemoryMB, Cold: r.Cold, Err: errMsg})
	}
	if tel := pl.tel; tel != nil {
		tel.Counter(telemetry.MLambdaInvocations).Inc()
		if r.Cold {
			tel.Counter(telemetry.MLambdaColdStarts).Inc()
		}
		if counter != "" {
			tel.Counter(counter).Inc()
		}
	}
}

// runHandler executes the user handler, converting panics into errors so a
// buggy handler fails one invocation rather than the whole simulation.
func (pl *Platform) runHandler(ctx *Ctx) (resp []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				switch {
				case errors.Is(e, ErrTimeout):
					err, resp = ErrTimeout, nil
					return
				case errors.Is(e, ErrCanceled):
					err, resp = ErrCanceled, nil
					return
				case errors.Is(e, ErrInjected):
					err, resp = e, nil
					return
				}
			}
			panic(r) // simulation bugs still abort loudly
		}
	}()
	return ctx.fn.Handler(ctx)
}

// Invocation is a handle to an asynchronous invocation.
type Invocation struct {
	done   *simtime.Latch
	resp   []byte
	err    error
	cancel *cancelCell
}

// Wait blocks until the invocation completes and returns its result.
func (iv *Invocation) Wait(p *simtime.Proc) ([]byte, error) {
	iv.done.Wait(p)
	return iv.resp, iv.err
}

// InvokeAsync launches the function in a child process and returns a
// handle. The caller pays the dispatch latency (so loops of InvokeAsync
// serialize dispatch, like real invoke-API loops); the execution itself
// runs concurrently.
func (pl *Platform) InvokeAsync(p *simtime.Proc, name, label string, payload []byte) *Invocation {
	dispStart := pl.sched.Now()
	if pl.cfg.DispatchLatency > 0 {
		p.Sleep(pl.cfg.DispatchLatency)
	}
	inv := pl.recordScheduled(p, name, label, dispStart)
	iv := &Invocation{done: pl.sched.NewLatch(), cancel: &cancelCell{}}
	p.Spawn("invoke:"+name, func(q *simtime.Proc) {
		iv.resp, iv.err = pl.invokeDispatched(q, name, label, payload, inv, iv.cancel)
		iv.done.Done()
	})
	return iv
}
