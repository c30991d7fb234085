package model

import (
	"astra/internal/mapreduce"
)

// RowEval caches the per-orchestration state that one DAG column row
// shares across every memory tier: the step shapes, their Q/R totals,
// the storage-held byte totals, and the sHat-priced waiting time. The
// DAG builder binds a RowEval to each (kM, kR) or kR row and then asks it
// for each tier's weight, so the orchestration and step shapes are
// derived once per row instead of once per edge. A zero RowEval is
// ready to bind; rebinding reuses the shape buffer, so a builder that
// keeps one RowEval per worker binds rows without allocating.
//
// Every method reproduces the corresponding Paper method's arithmetic
// in the same order, so the hoisted weights are bit-identical to the
// per-edge originals.
type RowEval struct {
	m      *Paper
	orch   mapreduce.Orchestration
	shapes []stepShape

	q, r    float64 // Q and R totals over the steps
	held2   float64 // D + S + Q: bytes held during the coordinator phase
	heldP   float64 // D + S + R: bytes held during the reduce phase
	d2      float64 // coordinator state-object write time
	waitHat float64 // waiting bill at the sHat tier (all steps but the last)
}

// BindRowFor binds the row to the exact orchestration of a (kM, kR)
// pair (the transfer/glue column).
func (m *Paper) BindRowFor(e *RowEval, kM, kR int) error {
	orch, err := m.orchFor(kM, kR)
	if err != nil {
		return err
	}
	m.BindRow(e, orch)
	return nil
}

// BindRowHat binds the row to the jHat-estimated orchestration for kR
// (the coordinator and reducer columns).
func (m *Paper) BindRowHat(e *RowEval, kR int) error {
	orch, err := m.orchHat(kR)
	if err != nil {
		return err
	}
	m.BindRow(e, orch)
	return nil
}

// BindRow derives the tier-independent row state from an orchestration.
func (m *Paper) BindRow(e *RowEval, orch mapreduce.Orchestration) {
	e.m = m
	e.orch = orch
	e.shapes = m.reduceShapeInto(e.shapes[:0], orch)
	e.q, e.r = qTotals(e.shapes)
	D := float64(m.P.Job.TotalBytes())
	S := D * m.P.Job.Profile.MapOutputRatio
	e.held2 = D + S + e.q
	e.heldP = D + S + e.r
	e.d2 = float64(orch.NumSteps()) * (m.P.latSec() + m.P.xferSec(m.P.StateObjectBytes))
	e.waitHat = 0
	for p := 0; p < len(e.shapes)-1; p++ {
		e.waitHat += m.stepTime(e.shapes[p], m.sHat())
	}
}

// TransferTime is Paper.TransferTime for the bound (kM, kR) row.
func (e *RowEval) TransferTime() float64 {
	d3 := 0.0
	for _, s := range e.shapes {
		d3 += e.m.stepTransfer(s)
	}
	return e.d2 + d3
}

// GlueCost is Paper.GlueCost for the bound (kM, kR) row.
func (e *RowEval) GlueCost(kR int) float64 {
	m := e.m
	st := m.P.Sheet.Store
	l := m.P.Sheet.Lambda
	g := 0 // e.orch.Reducers(), read off the bound steps' splits
	for _, s := range e.shapes {
		g += s.loads.Count()
	}
	u2 := float64(st.RequestCost(0, int64(e.orch.NumSteps())))
	up := float64(st.RequestCost(int64(g)*int64(kR), int64(g)))
	return u2 + up + float64(l.InvocationCost(1)) + float64(l.InvocationCost(g))
}

// CoordCost is Paper.CoordCost at one coordinator tier of the bound
// jHat row.
func (e *RowEval) CoordCost(memMB int) float64 {
	m := e.m
	st := m.P.Sheet.Store
	l := m.P.Sheet.Lambda
	t2 := m.P.dispSec() + m.P.coordComputeSec(m.jHat(), memMB) + e.d2
	v2 := float64(st.StorageCost(t2 * e.held2))
	w2 := float64(l.PerSecond(memMB)) * (t2 + e.waitHat)
	return v2 + w2
}

// ReduceCompute is Paper.ReduceCompute at one reducer tier of the bound
// jHat row.
func (e *RowEval) ReduceCompute(memMB int) float64 {
	total := 0.0
	for _, s := range e.shapes {
		total += e.m.stepCompute(s, memMB)
	}
	return total
}

// ReduceCost is Paper.ReduceCost at one reducer tier of the bound jHat
// row.
func (e *RowEval) ReduceCost(memMB int) float64 {
	m := e.m
	st := m.P.Sheet.Store
	l := m.P.Sheet.Lambda
	tp := 0.0
	for _, s := range e.shapes {
		tp += m.stepTime(s, memMB)
	}
	wp := m.reducerBillSec(e.shapes, memMB) * float64(l.PerSecond(memMB))
	vp := float64(st.StorageCost(tp * e.heldP))
	return vp + wp
}

// MapperCostFor is Paper.MapperCost evaluated against a caller-supplied
// orchestration (any kR: the mapper terms ignore the reducer shape), so
// the DAG builder can reuse the feasibility check's orchestration for
// all L tiers of a kM row.
func (m *Paper) MapperCostFor(orch mapreduce.Orchestration, memMB, kM int) float64 {
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
