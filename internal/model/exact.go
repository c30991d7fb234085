package model

import (
	"fmt"
	"time"

	"astra/internal/flight"
	"astra/internal/mapreduce"
	"astra/internal/pricing"
)

// Exact is the ground-truth predictor: a dry run of the execution engine's
// exact timeline. It tracks per-mapper loads and the heterogeneous object
// sizes they produce, per-step parallel maxima, per-lambda billed
// durations (rounded to the billing quantum), and exact storage
// byte-seconds for every object's actual lifetime. Its predictions match
// what internal/mapreduce.Driver measures for the same configuration (the
// cross-validation tests assert this).
type Exact struct {
	P Params
}

// NewExact builds the exact predictor.
func NewExact(p Params) *Exact { return &Exact{P: p} }

// waveStarts computes when each task of a wave actually begins under a
// FIFO concurrency cap: task i becomes eligible at launch[i] (ascending)
// and starts as soon as a slot frees, slots being held for dur[i]. This
// is the analytic twin of the platform's FIFO semaphore, so the model
// stays exact even when the account concurrency limit binds and lambdas
// queue in waves.
func waveStarts(launch, dur []float64, cap int) []float64 {
	starts := make([]float64, len(launch))
	if cap <= 0 {
		cap = 1
	}
	// Min-heap of running tasks' end times: never more than cap of them,
	// nor more than the wave has tasks.
	ends := make([]float64, 0, min(cap, len(launch)))
	push := func(v float64) {
		ends = append(ends, v)
		for i := len(ends) - 1; i > 0; {
			parent := (i - 1) / 2
			if ends[parent] <= ends[i] {
				break
			}
			ends[parent], ends[i] = ends[i], ends[parent]
			i = parent
		}
	}
	pop := func() float64 {
		top := ends[0]
		last := len(ends) - 1
		ends[0] = ends[last]
		ends = ends[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(ends) && ends[l] < ends[small] {
				small = l
			}
			if r < len(ends) && ends[r] < ends[small] {
				small = r
			}
			if small == i {
				break
			}
			ends[i], ends[small] = ends[small], ends[i]
			i = small
		}
		return top
	}
	for i := range launch {
		start := launch[i]
		if len(ends) == cap {
			if free := pop(); free > start {
				start = free
			}
		}
		starts[i] = start
		push(start + dur[i])
	}
	return starts
}

// billedSec rounds an execution duration up to the billing quantum, in
// seconds (matching pricing.Lambda.BilledDuration on the virtual clock).
func (m *Exact) billedSec(sec float64) float64 {
	q := m.P.Sheet.Lambda.BillingQuantum.Seconds()
	if q <= 0 || sec <= 0 {
		return sec
	}
	n := sec / q
	rounded := float64(int64(n)) * q
	if rounded < sec {
		rounded += q
	}
	return rounded
}

// Predict replays the driver's timeline for the configuration.
func (m *Exact) Predict(cfg mapreduce.Config) (Prediction, error) {
	return m.predict(cfg, nil)
}

// PredictBreakdown replays the timeline and additionally decomposes each
// predicted stage into the paper's per-stage terms (startup, compute, I/O,
// waiting), in the same shape the flight recorder's critical-path analyzer
// produces for measured runs — so a run can be audited term-by-term
// against the plan. The breakdown's headline JCT and cost equal Predict's
// exactly (same arithmetic, one code path).
func (m *Exact) PredictBreakdown(cfg mapreduce.Config) (*Breakdown, error) {
	bd := &Breakdown{}
	pr, err := m.predict(cfg, bd)
	if err != nil {
		return nil, err
	}
	bd.JCT = pr.JCT()
	bd.CostUSD = pr.TotalCost()
	return bd, nil
}

// Breakdown is the per-stage prediction shape shared with the flight
// recorder's analyzer.
type Breakdown = flight.Breakdown

// secDur converts model seconds to a virtual duration.
func secDur(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}

// stageTerms assembles a predicted stage whose waiting term is the
// residual against the stage duration, mirroring how the analyzer
// decomposes measured stages (terms always sum exactly to the duration).
func stageTerms(name string, memMB int, durSec, startupSec, computeSec, ioSec float64, critical string) flight.Stage {
	st := flight.Stage{
		Name:     name,
		MemoryMB: memMB,
		Duration: secDur(durSec),
		Critical: critical,
	}
	st.Terms.Startup = secDur(startupSec)
	st.Terms.Compute = secDur(computeSec)
	st.Terms.IO = secDur(ioSec)
	st.Terms.Waiting = st.Duration - st.Terms.Startup - st.Terms.Compute - st.Terms.IO
	return st
}

// predict is the shared replay; bd, when non-nil, collects the per-stage
// term decomposition (the hot planning path passes nil and pays nothing).
func (m *Exact) predict(cfg mapreduce.Config, bd *flight.Breakdown) (Prediction, error) {
	if err := m.P.Validate(); err != nil {
		return Prediction{}, err
	}
	orch, err := mapreduce.OrchestrateFor(m.P.Job.Profile, m.P.Job.NumObjects, cfg.ObjsPerMapper, cfg.ObjsPerReducer)
	if err != nil {
		return Prediction{}, err
	}
	l := m.P.Sheet.Lambda
	st := m.P.Sheet.Store
	alpha := m.P.Job.Profile.MapOutputRatio
	beta := m.P.Job.Profile.ReduceOutputRatio

	pr := Prediction{Config: cfg, Orch: orch}

	// storageEvents records (creationTime, size); input objects exist for
	// the whole job. Byte-seconds are integrated once the end time is
	// known.
	type stored struct {
		at   float64
		size int64
	}
	var events []stored

	var gets, puts int64
	var lambdaBill float64
	lat := m.P.latSec()
	disp := m.P.dispSec()

	// --- Mapping phase: the driver dispatches mappers in a loop (mapper
	// m becomes eligible after m+1 dispatch round trips), then awaits
	// all; a binding concurrency cap queues them FIFO into waves. ---
	cap := m.P.maxLambdas()
	mapOutSizes := make([]int64, orch.Mappers())
	mapLaunch := make([]float64, orch.Mappers())
	mapDur := make([]float64, orch.Mappers())
	for mi := range mapDur {
		load := orch.MapperLoads.Load(mi)
		in := int64(load) * m.P.Job.ObjectSize
		out := int64(float64(in) * alpha)
		mapOutSizes[mi] = out
		mapLaunch[mi] = float64(mi+1) * disp
		mapDur[mi] = float64(load+1)*lat + m.P.xferSec(in+out) + m.P.computeSec(in, cfg.MapperMemMB)
	}
	mapStarts := waveStarts(mapLaunch, mapDur, cap)
	mapEnd := 0.0
	critMi := 0
	for mi := range mapDur {
		end := mapStarts[mi] + mapDur[mi]
		events = append(events, stored{at: end, size: mapOutSizes[mi]})
		gets += int64(orch.MapperLoads.Load(mi))
		puts++
		lambdaBill += m.billedSec(mapDur[mi]) * float64(l.PerSecond(cfg.MapperMemMB))
		if end > mapEnd {
			mapEnd = end
			critMi = mi
		}
	}
	pr.MapSec = mapEnd
	if bd != nil {
		// The critical mapper's terms, mirroring the analyzer: startup is
		// its actual start (dispatch serialization + queueing), I/O its
		// store round trips and transfer, compute its declared CPU work.
		load := orch.MapperLoads.Load(critMi)
		in := int64(load) * m.P.Job.ObjectSize
		io := float64(load+1)*lat + m.P.xferSec(in+mapOutSizes[critMi])
		bd.Stages = append(bd.Stages, stageTerms(
			"map", cfg.MapperMemMB, mapEnd,
			mapStarts[critMi], m.P.computeSec(in, cfg.MapperMemMB), io,
			fmt.Sprintf("map-%d", critMi)))
	}

	// --- Coordinator + reducing cascade. ---
	now := mapEnd + disp // the coordinator's own dispatch
	coordStart := now
	now += m.P.coordComputeSec(orch.Mappers(), cfg.CoordMemMB)
	coordExclusive := now - coordStart + disp

	prevSizes := mapOutSizes
	stateXfer := lat + m.P.xferSec(m.P.StateObjectBytes)
	var coordEnd float64
	var stepStages []flight.Stage
	for pi := 0; pi < orch.NumSteps(); pi++ {
		step := orch.Step(pi)
		// State object write.
		now += stateXfer
		coordExclusive += stateXfer
		events = append(events, stored{at: now, size: m.P.StateObjectBytes})
		puts++

		// Reducers of the step, dispatched serially, running in parallel.
		// The coordinator lambda holds one concurrency slot itself, so
		// cap-1 slots serve the step under a binding limit.
		stepStart := now
		outSizes := make([]int64, step.Count())
		redLaunch := make([]float64, step.Count())
		redDur := make([]float64, step.Count())
		var inSizes []int64
		if bd != nil {
			inSizes = make([]int64, step.Count())
		}
		off := 0
		for r := range redDur {
			load := step.Load(r)
			var in int64
			for _, sz := range prevSizes[off : off+load] {
				in += sz
			}
			off += load
			if bd != nil {
				inSizes[r] = in
			}
			outSizes[r] = int64(float64(in) * beta)
			redLaunch[r] = stepStart + float64(r+1)*disp
			redDur[r] = float64(load+1)*lat + m.P.xferSec(in+outSizes[r]) + m.P.computeSec(in, cfg.ReducerMemMB)
		}
		// The coordinator holds a concurrency slot of its own. During
		// waited steps it holds it throughout (capacity cap-1); during
		// the FINAL step it exits right after the last dispatch, modeled
		// as a phantom slot-holder from the step start until then.
		var redStarts []float64
		final := pi == orch.NumSteps()-1
		if final {
			launch := append([]float64{stepStart}, redLaunch...)
			dur := append([]float64{float64(step.Count()) * disp}, redDur...)
			redStarts = waveStarts(launch, dur, maxIntModel(cap, 1))[1:]
		} else {
			redStarts = waveStarts(redLaunch, redDur, maxIntModel(cap-1, 1))
		}
		stepEnd := stepStart
		critR := 0
		for r := range redDur {
			end := redStarts[r] + redDur[r]
			events = append(events, stored{at: end, size: outSizes[r]})
			gets += int64(step.Load(r))
			puts++
			lambdaBill += m.billedSec(redDur[r]) * float64(l.PerSecond(cfg.ReducerMemMB))
			if end > stepEnd {
				stepEnd = end
				critR = r
			}
		}
		if bd != nil {
			load := step.Load(critR)
			in := inSizes[critR]
			io := float64(load+1)*lat + m.P.xferSec(in+outSizes[critR])
			stepStages = append(stepStages, stageTerms(
				fmt.Sprintf("step-%02d", pi), cfg.ReducerMemMB, stepEnd-stepStart,
				redStarts[critR]-stepStart, m.P.computeSec(in, cfg.ReducerMemMB), io,
				fmt.Sprintf("red-%d-%d", pi, critR)))
		}
		if final {
			// The coordinator returns right after dispatching the final
			// step's reducers; the driver awaits their completion.
			coordEnd = stepStart + float64(step.Count())*disp
		}
		pr.StepSec = append(pr.StepSec, stepEnd-stepStart)
		pr.ReduceSec += stepEnd - stepStart
		now = stepEnd
		prevSizes = outSizes
	}
	pr.CoordSec = coordExclusive
	if bd != nil {
		// Coordinator-exclusive segment: dispatch (startup), its declared
		// compute, and the state-object writes (I/O). Matches the
		// analyzer's residual orchestration stage.
		bd.Stages = append(bd.Stages, stageTerms(
			"coordinator", cfg.CoordMemMB, coordExclusive,
			disp, m.P.coordComputeSec(orch.Mappers(), cfg.CoordMemMB),
			float64(orch.NumSteps())*stateXfer, "coordinator"))
		bd.Stages = append(bd.Stages, stepStages...)
	}

	// Coordinator bill: its sandbox spans from coordStart until it
	// launches the final step (it waits through steps 1..P-1 and the
	// state writes, then returns).
	coordSpan := coordEnd - coordStart
	lambdaBill += m.billedSec(coordSpan) * float64(l.PerSecond(cfg.CoordMemMB))

	// Invocation fees.
	invocations := orch.TotalLambdas()
	pr.LambdaCost = pricing.USD(lambdaBill) + l.InvocationCost(invocations)

	// Requests.
	pr.RequestCost = st.RequestCost(gets, puts)

	// Storage: input for the whole job plus each created object from its
	// creation to job end.
	end := now
	byteSec := float64(m.P.Job.TotalBytes()) * end
	for _, ev := range events {
		if ev.at < end {
			byteSec += float64(ev.size) * (end - ev.at)
		}
	}
	pr.StorageCost = st.StorageCost(byteSec)
	return pr, nil
}

func maxIntModel(a, b int) int {
	if a > b {
		return a
	}
	return b
}
