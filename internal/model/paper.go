package model

import (
	"math"

	"astra/internal/mapreduce"
	"astra/internal/pricing"
)

// Paper is the analytic model of Sec. III. Its component methods are the
// edge weights of the Fig. 5 DAG:
//
//	column pair            time weight              cost weight
//	mapper-mem -> mappers  MapperTime (Eq. 4)       MapperCost (U1+V1+W1)
//	mappers -> objs/red    TransferTime (d2+d3)     GlueCost (U2+UP+I2+I3)
//	objs/red -> coord-mem  CoordCompute (c2)        CoordCost (V2+W2')
//	coord-mem -> red-mem   ReduceCompute            ReduceCost (VP+WP)
//
// Weights that the paper's separable DAG cannot know exactly (the mapper
// count j on late edges, the reducer memory s inside the coordinator's
// waiting bill) are estimated (jHat, sHat); Predict — which sees the
// whole configuration — uses exact values, so the estimation error exists
// only inside the DAG solver and is quantified by the A2 ablation.
type Paper struct {
	P Params
	// Aggregate selects the literal Eq. 9 reduce-phase charging: totals
	// across all steps, blind to within-step parallelism. Taken
	// literally it makes a single all-consuming reducer (k_R >= j) look
	// free, which contradicts the paper's own Table III choices, so the
	// default is the per-step formulation: each step costs its busiest
	// reducer's time, steps are sequential. Ablation A3 quantifies the
	// difference.
	Aggregate bool
}

// NewPaper builds the paper model.
func NewPaper(p Params) *Paper { return &Paper{P: p} }

// jHat is the mapper-count estimate for edges whose column pair does not
// include j: N, maximum parallelism.
func (m *Paper) jHat() int { return m.P.Job.NumObjects }

// sHat is the reducer-memory estimate for the coordinator's waiting bill
// on cost-mode edges: the speed reference tier, or 1024 MB without one.
func (m *Paper) sHat() int {
	if m.P.Speed.RefMemMB > 0 {
		return m.P.Speed.RefMemMB
	}
	return 1024
}

// stepShape is the model's view of one reducing step: aggregate input and
// output sizes (Table II's q recurrence), the busiest reducer's share and
// the step's split of objects over its reducers.
type stepShape struct {
	totalIn  float64 // q_{p-1}
	totalOut float64 // q_p
	busyIn   float64 // busiest reducer's input bytes
	loads    mapreduce.Split
}

// addOver adds term(load) to total for every worker of a split, in worker
// order. The Full equal loads share one term, computed once and added
// Full times, then the tail's term is added: the same additions in the
// same order as a loop over a per-worker slice of loads, so the sum is
// bit for bit that loop's.
func addOver(total float64, s mapreduce.Split, term func(load int) float64) float64 {
	if s.Full > 0 {
		t := term(s.K)
		for i := 0; i < s.Full; i++ {
			total += t
		}
	}
	if s.Tail > 0 {
		total += term(s.Tail)
	}
	return total
}

// reduceShape derives the per-step shapes for an orchestration: the
// aggregate sizes follow the geometric q recurrence, and the busiest
// reducer of step p carries maxLoad_p objects of the step's average size.
// The loop body lives in reduceShapeInto so RowEval can fill a reused
// buffer with the same arithmetic.
func (m *Paper) reduceShape(orch mapreduce.Orchestration) []stepShape {
	return m.reduceShapeInto(make([]stepShape, 0, orch.NumSteps()), orch)
}

// qTotals sums Q (total reduce input) and R (total reduce output) over
// the steps.
func qTotals(shapes []stepShape) (Q, R float64) {
	for _, s := range shapes {
		Q += s.totalIn
		R += s.totalOut
	}
	return Q, R
}

// The step and execution-time formulas below read the request and
// dispatch latencies in seconds (lat, disp) and the memory tier's speed
// factor (f) as arguments: Predict and the per-edge methods derive them
// from Params per call, a DAG build once (Weights). The values are the
// same bits either way, and so is every sum over them.

// stepTime is one step's duration: the serialized reducer dispatches plus
// its busiest reducer's request latencies, transfer and compute
// (default), or the step's share of the Eq. 9 aggregate (Aggregate mode).
func (m *Paper) stepTime(s stepShape, lat, disp, f float64) float64 {
	in, out, load := s.busyIn, s.busyIn*m.P.Job.Profile.ReduceOutputRatio, s.loads.Max()
	if m.Aggregate {
		in, out = s.totalIn, s.totalOut
	}
	return float64(s.loads.Count())*disp +
		float64(load+1)*lat +
		(in+out)/m.P.BandwidthBps +
		(in/(1<<20))*m.P.Job.Profile.USecPerMB*f
}

// stepCompute is the compute part of a step's duration.
func (m *Paper) stepCompute(s stepShape, f float64) float64 {
	in := s.busyIn
	if m.Aggregate {
		in = s.totalIn
	}
	return (in / (1 << 20)) * m.P.Job.Profile.USecPerMB * f
}

// stepTransfer is the non-compute part of a step's duration, including
// the serialized reducer dispatches.
func (m *Paper) stepTransfer(s stepShape, lat, disp float64) float64 {
	in, out, load := s.busyIn, s.busyIn*m.P.Job.Profile.ReduceOutputRatio, s.loads.Max()
	if m.Aggregate {
		in, out = s.totalIn, s.totalOut
	}
	return float64(s.loads.Count())*disp +
		float64(load+1)*lat + (in+out)/m.P.BandwidthBps
}

// orchFor computes the job shape for a (kM, kR) pair.
func (m *Paper) orchFor(kM, kR int) (mapreduce.Orchestration, error) {
	return mapreduce.OrchestrateFor(m.P.Job.Profile, m.P.Job.NumObjects, kM, kR)
}

// orchHat computes the job shape for kR with the estimated mapper count.
func (m *Paper) orchHat(kR int) (mapreduce.Orchestration, error) {
	return mapreduce.OrchestrateFor(m.P.Job.Profile, m.P.Job.NumObjects, maxKMFor(m.jHat(), m.P.Job.NumObjects), kR)
}

// maxKMFor inverts a mapper count back to an objects-per-mapper value:
// the smallest kM that yields at most j mappers.
func maxKMFor(j, n int) int {
	if j >= n {
		return 1
	}
	return (n + j - 1) / j
}

// --- Time components (Fig. 5 edge weights, time mode) ---

// mapperExecSec is one mapper's billable execution time for a given
// object load: its GET/PUT request latencies, transfers and compute.
func (m *Paper) mapperExecSec(load int, lat, f float64) float64 {
	in := int64(load) * m.P.Job.ObjectSize
	out := int64(float64(in) * m.P.Job.Profile.MapOutputRatio)
	return float64(load+1)*lat + m.P.xferSec(in+out) + m.P.computeSecAt(in, f)
}

// MapperTime is Eq. (4) with the dispatch serialization added: the j
// launch round trips plus the slowest mapper's execution. With the greedy
// split the slowest mapper carries exactly kM objects.
func (m *Paper) MapperTime(memMB, kM int) float64 {
	j := (m.P.Job.NumObjects + kM - 1) / kM
	return float64(j)*m.P.dispSec() + m.mapperExecSec(kM, m.P.latSec(), m.P.Speed.Factor(memMB))
}

// TransferTime is the second edge set: the coordinator's state-object
// writes (d2) plus the reducing phase's data movement and request
// latencies (d3).
func (m *Paper) TransferTime(kM, kR int) (float64, error) {
	var e RowEval
	if err := m.weightsAt().BindRowFor(&e, kM, kR); err != nil {
		return 0, err
	}
	return e.TransferTime(), nil
}

// CoordCompute is the third edge set: c2 for the estimated mapper count,
// plus the coordinator's own dispatch round trip.
func (m *Paper) CoordCompute(memMB int) float64 {
	return m.P.dispSec() + m.P.coordComputeSec(m.jHat(), memMB)
}

// ReduceCompute is the fourth edge set: the reducing phase's compute time
// for the estimated mapper count, with kR fixing the cascade.
func (m *Paper) ReduceCompute(memMB, kR int) (float64, error) {
	var e RowEval
	if err := m.weightsAt(memMB).BindRowHat(&e, kR); err != nil {
		return 0, err
	}
	return e.ReduceCompute(0), nil
}

// --- Cost components (Fig. 5 edge weights, cost mode) ---

// MapperCost is the first cost edge set: U1 + V1 + W1 for (i, j).
func (m *Paper) MapperCost(memMB, kM int) float64 {
	orch, err := m.orchFor(kM, 2) // reducer shape irrelevant to mapper terms
	if err != nil {
		return math.Inf(1)
	}
	st := m.P.Sheet.Store
	l := m.P.Sheet.Lambda
	j := orch.Mappers()
	t1 := m.MapperTime(memMB, kM)
	u1 := float64(st.RequestCost(int64(kM)*int64(j), int64(j)))
	v1 := float64(st.StorageCost(float64(m.P.Job.TotalBytes()) * t1))
	w1 := m.mapperBillSec(orch, memMB)*float64(l.PerSecond(memMB)) +
		float64(l.InvocationCost(j))
	return u1 + v1 + w1
}

// mapperBillSec sums the mapping phase's billable seconds: each mapper is
// billed its own execution (dispatch is client-side and unbilled), not
// the phase maximum (the greedy split leaves at most one short-tailed
// mapper).
func (m *Paper) mapperBillSec(orch mapreduce.Orchestration, memMB int) float64 {
	lat, f := m.P.latSec(), m.P.Speed.Factor(memMB)
	return addOver(0, orch.MapperLoads, func(load int) float64 {
		return m.mapperExecSec(load, lat, f)
	})
}

// reducerBillSec sums the reducing phase's billable seconds across every
// reducer's own duration, using each step's average object size.
func (m *Paper) reducerBillSec(shapes []stepShape, lat, f float64) float64 {
	beta := m.P.Job.Profile.ReduceOutputRatio
	total := 0.0
	for _, s := range shapes {
		perObj := s.totalIn / float64(s.loads.Objects())
		total = addOver(total, s.loads, func(load int) float64 {
			in := perObj * float64(load)
			return float64(load+1)*lat +
				(in+in*beta)/m.P.BandwidthBps +
				(in/(1<<20))*m.P.Job.Profile.USecPerMB*f
		})
	}
	return total
}

// GlueCost is the second cost edge set: the coordinator's and reducers'
// request charges plus their invocation fees (U2 + UP + I2 + I3).
func (m *Paper) GlueCost(kM, kR int) (float64, error) {
	var e RowEval
	if err := m.weightsAt().BindRowFor(&e, kM, kR); err != nil {
		return 0, err
	}
	return e.GlueCost(kR), nil
}

// CoordCost is the third cost edge set: the coordinator's storage term V2
// plus its own compute bill (its waiting bill uses the sHat estimator).
func (m *Paper) CoordCost(memMB, kR int) (float64, error) {
	var e RowEval
	if err := m.weightsAt(memMB).BindRowHat(&e, kR); err != nil {
		return 0, err
	}
	return e.CoordCost(0), nil
}

// ReduceCost is the fourth cost edge set: VP + WP for (kR, s).
func (m *Paper) ReduceCost(memMB, kR int) (float64, error) {
	var e RowEval
	if err := m.weightsAt(memMB).BindRowHat(&e, kR); err != nil {
		return 0, err
	}
	return e.ReduceCost(0), nil
}

// Predict evaluates the full model for a configuration. Unlike the DAG
// edge components, Predict knows the whole configuration, so no jHat/sHat
// estimation is involved.
func (m *Paper) Predict(cfg mapreduce.Config) (Prediction, error) {
	if err := m.P.Validate(); err != nil {
		return Prediction{}, err
	}
	orch, err := m.orchFor(cfg.ObjsPerMapper, cfg.ObjsPerReducer)
	if err != nil {
		return Prediction{}, err
	}
	st := m.P.Sheet.Store
	l := m.P.Sheet.Lambda
	j := orch.Mappers()
	g := orch.Reducers()
	P := orch.NumSteps()
	shapes := m.reduceShape(orch)
	Q, R := qTotals(shapes)
	D := float64(m.P.Job.TotalBytes())
	S := D * m.P.Job.Profile.MapOutputRatio

	t1 := m.MapperTime(cfg.MapperMemMB, cfg.ObjsPerMapper)
	t2 := m.P.dispSec() + m.P.coordComputeSec(j, cfg.CoordMemMB) +
		float64(P)*(m.P.latSec()+m.P.xferSec(m.P.StateObjectBytes))
	lat, disp := m.P.latSec(), m.P.dispSec()
	fRed := m.P.Speed.Factor(cfg.ReducerMemMB)
	taus := make([]float64, P)
	tp := 0.0
	for p, s := range shapes {
		taus[p] = m.stepTime(s, lat, disp, fRed)
		tp += taus[p]
	}

	pr := Prediction{
		Config:    cfg,
		Orch:      orch,
		MapSec:    t1,
		CoordSec:  t2,
		ReduceSec: tp,
		StepSec:   taus,
	}

	// Requests (Eq. 10).
	u1 := st.RequestCost(int64(cfg.ObjsPerMapper)*int64(j), int64(j))
	u2 := st.RequestCost(0, int64(P))
	up := st.RequestCost(int64(g)*int64(cfg.ObjsPerReducer), int64(g))
	pr.RequestCost = u1 + u2 + up

	// Storage (Eq. 11).
	v1 := st.StorageCost(D * t1)
	v2 := st.StorageCost(t2 * (D + S + Q))
	vp := st.StorageCost(tp * (D + S + R))
	pr.StorageCost = v1 + v2 + vp

	// Lambda runtime (Eq. 12-15).
	waiting := 0.0
	for p := 0; p < len(taus)-1; p++ {
		waiting += taus[p]
	}
	w1 := float64(l.PerSecond(cfg.MapperMemMB)) * m.mapperBillSec(orch, cfg.MapperMemMB)
	w2 := float64(l.PerSecond(cfg.CoordMemMB)) * (t2 + waiting)
	wp := float64(l.PerSecond(cfg.ReducerMemMB)) * m.reducerBillSec(shapes, lat, fRed)
	inv := l.InvocationCost(j + 1 + g)
	pr.LambdaCost = pricing.USD(w1+w2+wp) + inv
	return pr, nil
}
