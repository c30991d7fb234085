// Package model implements Astra's analytic performance and monetary cost
// models for serverless MapReduce jobs (Sec. III of the paper).
//
// Two predictors are provided:
//
//   - Paper: the literal aggregate model of Eq. (1)-(15). The reducing
//     phase is charged on totals (Eq. 9) and costs follow the U/V/W
//     decomposition. Its component methods carry exactly the edge-weight
//     decomposition of the Fig. 5 DAG, so the dag package consumes them
//     directly.
//
//   - Exact: a deterministic dry-run of the execution engine's timeline
//     (per-mapper loads, per-step parallel maxima, per-lambda billing with
//     the billing quantum, exact storage byte-seconds). Exact.Predict on a
//     configuration matches what internal/mapreduce.Driver measures when
//     running that configuration, which is asserted by cross-validation
//     tests; it is the ground truth for the solver ablations.
package model

import (
	"fmt"
	"time"

	"astra/internal/lambda"
	"astra/internal/mapreduce"
	"astra/internal/pricing"
	"astra/internal/workload"
)

// Params bundles the job- and platform-level constants the models need.
type Params struct {
	// Job is the workload: profile, object count N and object size.
	Job workload.Job
	// Sheet supplies prices and quotas.
	Sheet *pricing.Sheet
	// Speed maps memory allocations to compute speed factors.
	Speed lambda.SpeedModel
	// BandwidthBps is the lambda<->store transfer rate in bytes per
	// second (the B constant).
	BandwidthBps float64
	// StateObjectBytes is the coordinator state object size (l).
	StateObjectBytes int64
	// RequestLatency is the fixed per-request overhead of the object
	// store (first-byte latency). It is what makes deep reducer cascades
	// and high per-lambda object counts expensive beyond pure bandwidth —
	// the mechanism behind the U-shape of the paper's Fig. 1 and Fig. 2.
	RequestLatency time.Duration
	// DispatchLatency is the invoke-API round trip paid serially by
	// whoever launches a wave of lambdas. It is what makes extreme
	// degrees of parallelism (one object per mapper on a 202-object
	// input) pay a real coordination price, pushing the optimum toward
	// moderate kM — the effect behind the paper's Table III choices.
	DispatchLatency time.Duration
	// MaxLambdas caps the per-phase lambda count (the R constant in
	// constraint 18). Zero means the sheet's concurrency limit.
	MaxLambdas int
}

// DefaultBandwidthBps is the default per-connection lambda<->S3 bandwidth:
// 80 MiB/s, in the range measured for AWS Lambda at ~1 GB allocations.
const DefaultBandwidthBps = 80 << 20

// DefaultRequestLatency is the default per-request first-byte latency of
// the object store, in the range measured for S3 GET/PUT.
const DefaultRequestLatency = 20 * time.Millisecond

// DefaultDispatchLatency is the default invoke-API round trip, in the
// range measured for a synchronous SDK invoke loop.
const DefaultDispatchLatency = 500 * time.Millisecond

// DefaultParams returns the standard parameterization for a job: AWS
// prices, the 1024/1792 speed model, 80 MiB/s bandwidth, 20 ms request
// latency and a 1 MB state object.
func DefaultParams(job workload.Job) Params {
	return Params{
		Job:              job,
		Sheet:            pricing.AWS(),
		Speed:            lambda.SpeedModel{RefMemMB: 1024, FloorMemMB: 1792},
		BandwidthBps:     DefaultBandwidthBps,
		StateObjectBytes: mapreduce.StateObjectBytes,
		RequestLatency:   DefaultRequestLatency,
		DispatchLatency:  DefaultDispatchLatency,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if err := p.Job.Validate(); err != nil {
		return err
	}
	if p.Sheet == nil {
		return fmt.Errorf("model: nil price sheet")
	}
	if p.BandwidthBps <= 0 {
		return fmt.Errorf("model: bandwidth must be positive")
	}
	if p.StateObjectBytes < 0 {
		return fmt.Errorf("model: negative state object size")
	}
	if p.RequestLatency < 0 {
		return fmt.Errorf("model: negative request latency")
	}
	if p.DispatchLatency < 0 {
		return fmt.Errorf("model: negative dispatch latency")
	}
	return nil
}

// latSec is the per-request latency in seconds.
func (p *Params) latSec() float64 { return p.RequestLatency.Seconds() }

// dispSec is the per-invocation dispatch latency in seconds.
func (p *Params) dispSec() float64 { return p.DispatchLatency.Seconds() }

// maxLambdas resolves the R constant.
func (p *Params) maxLambdas() int {
	if p.MaxLambdas > 0 {
		return p.MaxLambdas
	}
	return p.Sheet.Lambda.MaxConcurrency
}

// xferSec is the store transfer time for n bytes (size/B).
func (p *Params) xferSec(n int64) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) / p.BandwidthBps
}

// computeSec is the compute time for n bytes at the given memory tier:
// bytes x u x speed factor (Eq. 3 with u_i realized by the speed model).
func (p *Params) computeSec(n int64, memMB int) float64 {
	if n <= 0 {
		return 0
	}
	mb := float64(n) / (1 << 20)
	return mb * p.Job.Profile.USecPerMB * p.Speed.Factor(memMB)
}

// coordComputeSec is the coordinator's compute time for j objects.
func (p *Params) coordComputeSec(j, memMB int) float64 {
	return p.Job.Profile.CoordSecPerObject * float64(j) * p.Speed.Factor(memMB)
}

// Prediction is a model's estimate for one configuration.
type Prediction struct {
	Config mapreduce.Config
	Orch   mapreduce.Orchestration

	// Time components, in seconds: mapping phase, coordinator-exclusive
	// time (compute + state writes), reducing phase, and per-step times.
	MapSec    float64
	CoordSec  float64
	ReduceSec float64
	StepSec   []float64

	// Cost components.
	LambdaCost  pricing.USD // duration billing + invocation fees (W + I)
	RequestCost pricing.USD // store request charges (U)
	StorageCost pricing.USD // storage-duration charges (V)
}

// TotalSec reports the predicted job completion time in seconds
// (the objective f of Eq. 16).
func (pr Prediction) TotalSec() float64 { return pr.MapSec + pr.CoordSec + pr.ReduceSec }

// JCT reports the predicted completion time as a duration.
func (pr Prediction) JCT() time.Duration {
	return time.Duration(pr.TotalSec() * float64(time.Second))
}

// TotalCost reports the predicted monetary cost (the objective h of
// Eq. 20).
func (pr Prediction) TotalCost() pricing.USD {
	return pr.LambdaCost + pr.RequestCost + pr.StorageCost
}

// Predictor estimates time and cost for a configuration. Both Paper and
// Exact implement it, as does any future learned model.
type Predictor interface {
	Predict(cfg mapreduce.Config) (Prediction, error)
}

// Feasible checks the paper's constraint (18): the working set fits the
// store's object size limit and the per-phase lambda count respects R.
func Feasible(p Params, orch mapreduce.Orchestration) error {
	r := p.maxLambdas()
	if orch.Mappers() > r {
		return fmt.Errorf("model: %d mappers exceed the lambda limit %d", orch.Mappers(), r)
	}
	// Largest single object along the pipeline must respect the store's
	// object limit (O = 5 TB): either a mapper's output, an input object,
	// or the busiest reducer's output in some step.
	maxObj := float64(p.Job.ObjectSize) * float64(orch.ObjsPerMapper) * p.Job.Profile.MapOutputRatio
	if in := float64(p.Job.ObjectSize); in > maxObj {
		maxObj = in
	}
	q := float64(p.Job.TotalBytes()) * p.Job.Profile.MapOutputRatio
	for i := 0; i < orch.NumSteps(); i++ {
		s := orch.Step(i)
		if s.Count() > r {
			return fmt.Errorf("model: step %d has %d reducers, exceeding the lambda limit %d",
				i+1, s.Count(), r)
		}
		perObj := q / float64(s.Objects())
		out := perObj * float64(s.Max()) * p.Job.Profile.ReduceOutputRatio
		if out > maxObj {
			maxObj = out
		}
		q *= p.Job.Profile.ReduceOutputRatio
	}
	if lim := p.Sheet.Store.MaxObjectBytes; lim > 0 && int64(maxObj) > lim {
		return fmt.Errorf("model: object of %d bytes exceeds the store limit %d", int64(maxObj), lim)
	}
	return nil
}
