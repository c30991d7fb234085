package model

import (
	"astra/internal/mapreduce"
)

// Weights is the model as one DAG build reads it: the constants every
// edge weight reads, computed once per build — the request and dispatch
// latencies in seconds, one coordinator state write, and each tier's
// speed factor, GB-second price and coordinator time — with the mapper
// rows and the row bindings that read them. Each constant is the value
// the per-edge methods compute per call, from the same operands in the
// same order, so the weights are bit-identical to theirs. A bound
// Weights is read-only, so a build's workers share it, each rebinding
// its own RowEval.
type Weights struct {
	m     *Paper
	lat   float64 // RequestLatency in seconds
	disp  float64 // DispatchLatency in seconds
	state float64 // one coordinator state write: lat plus the object's transfer
	hatF  float64 // the sHat tier's speed factor, for the waiting bill
	tiers []tierW
}

// tierW is what the weights read of one memory tier.
type tierW struct {
	factor float64 // Speed.Factor
	perSec float64 // Lambda.PerSecond, in dollars
	coord  float64 // CoordCompute
}

// Bind computes the constants of a build of m over tiers, reusing w's
// tier buffer.
func (w *Weights) Bind(m *Paper, tiers []int) {
	w.m = m
	w.lat, w.disp = m.P.latSec(), m.P.dispSec()
	w.state = w.lat + m.P.xferSec(m.P.StateObjectBytes)
	w.hatF = m.P.Speed.Factor(m.sHat())
	w.tiers = w.tiers[:0]
	for _, mem := range tiers {
		w.tiers = append(w.tiers, tierW{
			factor: m.P.Speed.Factor(mem),
			perSec: float64(m.P.Sheet.Lambda.PerSecond(mem)),
			coord:  m.CoordCompute(mem),
		})
	}
}

// weightsAt is a Weights over the given tiers, for the per-edge methods:
// each binds its own row at exactly the (kM, kR) or kR it is asked for,
// so a test that compares the DAG against them checks every row the
// build shares.
func (m *Paper) weightsAt(tiers ...int) *Weights {
	w := new(Weights)
	w.Bind(m, tiers)
	return w
}

// CoordCompute is Paper.CoordCompute at tier ti: it does not read kR, so
// a build computes it once per tier.
func (w *Weights) CoordCompute(ti int) float64 { return w.tiers[ti].coord }

// MapperRow writes the mapper edge's time (Eq. 4) and cost (U1+V1+W1) at
// every tier into t and c, for kM objects per mapper under orch (any kR:
// the mapper terms ignore the reducer shape). The slowest mapper carries
// kM objects, so its execution time is the time's second term, the
// bill's full-load term and, through V1, part of the cost: it is
// computed once per tier and read three times.
func (w *Weights) MapperRow(orch mapreduce.Orchestration, kM int, t, c []float64) {
	m := w.m
	st := m.P.Sheet.Store
	j := orch.Mappers()
	dispatch := float64(j) * w.disp
	u1 := float64(st.RequestCost(int64(kM)*int64(j), int64(j)))
	inv := float64(m.P.Sheet.Lambda.InvocationCost(j))
	D := float64(m.P.Job.TotalBytes())
	for ti, tw := range w.tiers {
		exec := m.mapperExecSec(kM, w.lat, tw.factor)
		t[ti] = dispatch + exec
		bill := addOver(0, orch.MapperLoads, func(load int) float64 {
			if load == kM {
				return exec
			}
			return m.mapperExecSec(load, w.lat, tw.factor)
		})
		c[ti] = u1 + float64(st.StorageCost(D*t[ti])) + (bill*tw.perSec + inv)
	}
}

// RowEval caches the per-orchestration state that one DAG column row
// shares across every memory tier: the step shapes and the coordinator's
// state writes, and for the coordinator and reducer columns also the
// storage-held byte totals and the sHat-priced waiting time. The DAG
// builder binds a RowEval to each (kM, kR) or kR row and then asks it
// for each tier's weight, so the orchestration and step shapes are
// derived once per row instead of once per edge. A zero RowEval is
// ready to bind; rebinding reuses the shape buffer, so a builder that
// keeps one RowEval per worker binds rows without allocating.
//
// Every method reproduces the corresponding Paper method's arithmetic
// in the same order, so the hoisted weights are bit-identical to the
// per-edge originals.
type RowEval struct {
	w      *Weights
	shapes []stepShape
	d2     float64 // coordinator state-object write time

	// Only the coordinator and reducer columns read these, so only
	// BindRowHat derives them.
	held2   float64 // D + S + Q: bytes held during the coordinator phase
	heldP   float64 // D + S + R: bytes held during the reduce phase
	waitHat float64 // waiting bill at the sHat tier (all steps but the last)
}

// BindRowFor binds the row to the exact orchestration of a (kM, kR) pair
// (the transfer/glue column).
func (w *Weights) BindRowFor(e *RowEval, kM, kR int) error {
	orch, err := w.m.orchFor(kM, kR)
	if err != nil {
		return err
	}
	w.bind(e, orch)
	return nil
}

// BindRowHat binds the row to the jHat-estimated orchestration for kR
// (the coordinator and reducer columns).
func (w *Weights) BindRowHat(e *RowEval, kR int) error {
	m := w.m
	orch, err := m.orchHat(kR)
	if err != nil {
		return err
	}
	w.bind(e, orch)
	q, r := qTotals(e.shapes)
	D := float64(m.P.Job.TotalBytes())
	S := D * m.P.Job.Profile.MapOutputRatio
	e.held2 = D + S + q
	e.heldP = D + S + r
	e.waitHat = 0
	for p := 0; p < len(e.shapes)-1; p++ {
		e.waitHat += m.stepTime(e.shapes[p], w.lat, w.disp, w.hatF)
	}
	return nil
}

// bind derives the row state every column reads from an orchestration.
func (w *Weights) bind(e *RowEval, orch mapreduce.Orchestration) {
	e.w = w
	e.shapes = w.m.reduceShapeInto(e.shapes[:0], orch)
	e.d2 = float64(orch.NumSteps()) * w.state
}

// TransferTime is Paper.TransferTime for the bound (kM, kR) row.
func (e *RowEval) TransferTime() float64 {
	d3 := 0.0
	for _, s := range e.shapes {
		d3 += e.w.m.stepTransfer(s, e.w.lat, e.w.disp)
	}
	return e.d2 + d3
}

// GlueCost is Paper.GlueCost for the bound (kM, kR) row.
func (e *RowEval) GlueCost(kR int) float64 {
	m := e.w.m
	st := m.P.Sheet.Store
	l := m.P.Sheet.Lambda
	g := 0 // the orchestration's Reducers(), read off the bound steps' splits
	for _, s := range e.shapes {
		g += s.loads.Count()
	}
	u2 := float64(st.RequestCost(0, int64(len(e.shapes))))
	up := float64(st.RequestCost(int64(g)*int64(kR), int64(g)))
	return u2 + up + float64(l.InvocationCost(1)) + float64(l.InvocationCost(g))
}

// CoordCost is Paper.CoordCost at coordinator tier ti of the bound jHat
// row.
func (e *RowEval) CoordCost(ti int) float64 {
	tw := e.w.tiers[ti]
	t2 := tw.coord + e.d2
	v2 := float64(e.w.m.P.Sheet.Store.StorageCost(t2 * e.held2))
	w2 := tw.perSec * (t2 + e.waitHat)
	return v2 + w2
}

// ReduceCompute is Paper.ReduceCompute at reducer tier ti of the bound
// jHat row.
func (e *RowEval) ReduceCompute(ti int) float64 {
	f := e.w.tiers[ti].factor
	total := 0.0
	for _, s := range e.shapes {
		total += e.w.m.stepCompute(s, f)
	}
	return total
}

// ReduceCost is Paper.ReduceCost at reducer tier ti of the bound jHat
// row.
func (e *RowEval) ReduceCost(ti int) float64 {
	w, tw := e.w, e.w.tiers[ti]
	m := w.m
	tp := 0.0
	for _, s := range e.shapes {
		tp += m.stepTime(s, w.lat, w.disp, tw.factor)
	}
	wp := m.reducerBillSec(e.shapes, w.lat, tw.factor) * tw.perSec
	vp := float64(m.P.Sheet.Store.StorageCost(tp * e.heldP))
	return vp + wp
}

// reduceShapeInto is reduceShape appending into a reused buffer.
func (m *Paper) reduceShapeInto(dst []stepShape, orch mapreduce.Orchestration) []stepShape {
	q := float64(m.P.Job.TotalBytes()) * m.P.Job.Profile.MapOutputRatio
	beta := m.P.Job.Profile.ReduceOutputRatio
	for p := 0; p < orch.NumSteps(); p++ {
		step := orch.Step(p)
		perObj := q / float64(step.Objects())
		dst = append(dst, stepShape{
			totalIn:  q,
			totalOut: q * beta,
			busyIn:   perObj * float64(step.Max()),
			loads:    step,
		})
		q *= beta
	}
	return dst
}
