// Package simworld is the one place that turns model.Params into the
// simulated Lambda/S3 platform a job executes on: a virtual-time
// scheduler, an object store, a Lambda platform, a MapReduce driver and
// the seeded input. The planner's contract — Exact.Predict equals the
// simulated run — holds only while every executed job goes through the
// same platform recipe, so the library facade, the planning service, the
// evaluation sweeps, the pipeline executor and the profiler all build
// their world here.
package simworld

import (
	"context"

	"astra/internal/lambda"
	"astra/internal/mapreduce"
	"astra/internal/model"
	"astra/internal/objectstore"
	"astra/internal/simtime"
	"astra/internal/telemetry"
	"astra/internal/workload"
)

// Input is what a world needs beyond model.Params: where and how the
// job's input objects are seeded.
type Input struct {
	// Bucket names the input bucket (it appears in recorded store events).
	Bucket string
	// Concrete seeds real generated bytes (from Seed) instead of size-only
	// metadata; jobs then run genuine application code under the
	// provider's per-function timeout. Profiled worlds lift the timeout:
	// the paper's optimization model carries no per-lambda duration
	// constraint (Sec. IV).
	Concrete bool
	Seed     int64
	// Store replaces the per-connection object store derived from Params,
	// for store regimes Params cannot express (aggregate shared
	// bandwidth). Nil for every other caller.
	Store *objectstore.Config
}

// World is one simulated platform instance with its input seeded. It
// runs one simulation (Run or Simulate) and is then spent.
type World struct {
	// Store is the platform's object store, for hooks that read objects
	// back inside the simulation.
	Store *objectstore.Store
	// Driver runs jobs on the platform; multi-job simulations (pipelines)
	// call it directly from Simulate.
	Driver *mapreduce.Driver
	// Keys are the seeded input objects, in order.
	Keys []string
	// Params are the model parameters the platform was built from.
	Params model.Params

	sched  *simtime.Scheduler
	bucket string
	mode   mapreduce.Mode
}

// New builds a fresh platform from params and seeds params.Job's input.
func New(params model.Params, in Input) (*World, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	storeCfg := objectstore.Config{
		Bandwidth:      params.BandwidthBps,
		RequestLatency: params.RequestLatency,
		Pricing:        params.Sheet.Store,
	}
	if in.Store != nil {
		storeCfg = *in.Store
	}
	sched := simtime.NewScheduler()
	store := objectstore.New(sched, storeCfg)
	plt := lambda.New(sched, store, lambda.Config{
		Sheet:           params.Sheet,
		Speed:           params.Speed,
		DispatchLatency: params.DispatchLatency,
		DisableTimeout:  !in.Concrete,
		// Consulted only for injected 429 windows (the concurrency cap
		// always queues FIFO): retry with backoff the way a real SDK
		// would, instead of failing on the first rejection.
		MaxRetries: 8,
	})
	w := &World{
		Store:  store,
		Driver: mapreduce.NewDriver(plt),
		Params: params,
		sched:  sched,
		bucket: in.Bucket,
		mode:   mapreduce.Profiled,
	}
	var err error
	if in.Concrete {
		w.mode = mapreduce.Concrete
		w.Keys, err = workload.SeedConcrete(store, in.Bucket, params.Job, in.Seed)
	} else {
		w.Keys, err = workload.SeedProfiled(store, in.Bucket, params.Job)
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

// Simulate runs body as the simulation's root process and returns its
// error, or the scheduler's (a cancelled ctx, a panicked or deadlocked
// process). The whole execution carries the pprof phase=simulate label,
// so CPU profiles separate planner phases from platform time.
func (w *World) Simulate(ctx context.Context, body func(*simtime.Proc) error) error {
	var bodyErr, err error
	telemetry.DoPhase(ctx, telemetry.PhaseSimulate, func(ctx context.Context) {
		err = w.sched.RunContext(ctx, func(p *simtime.Proc) { bodyErr = body(p) })
	})
	if err != nil {
		return err
	}
	return bodyErr
}

// Run executes the world's job under cfg. mut, when non-nil, edits the
// JobSpec first (recorder, monitor, chaos, orchestrator, ...); after,
// when non-nil, runs inside the simulation once the job has succeeded —
// the only time its output objects can be read back.
func (w *World) Run(ctx context.Context, cfg mapreduce.Config, mut func(*mapreduce.JobSpec),
	after func(*simtime.Proc, *mapreduce.Report) error) (*mapreduce.Report, error) {
	spec := mapreduce.JobSpec{
		Workload:  w.Params.Job,
		Bucket:    w.bucket,
		InputKeys: w.Keys,
		Mode:      w.mode,
	}
	if mut != nil {
		mut(&spec)
	}
	var rep *mapreduce.Report
	err := w.Simulate(ctx, func(p *simtime.Proc) (err error) {
		if rep, err = w.Driver.Run(p, spec, cfg); err != nil || after == nil {
			return err
		}
		return after(p, rep)
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}
