package model

import (
	"math"
	"testing"

	"astra/internal/mapreduce"
	"astra/internal/workload"
)

func testParams() Params {
	return DefaultParams(workload.Job{
		Profile:    workload.WordCount,
		NumObjects: 12,
		ObjectSize: 8 << 20,
	})
}

func cfg(i, kM, kR, a, s int) mapreduce.Config {
	return mapreduce.Config{
		MapperMemMB: i, CoordMemMB: a, ReducerMemMB: s,
		ObjsPerMapper: kM, ObjsPerReducer: kR,
	}
}

func TestParamsValidate(t *testing.T) {
	p := testParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.BandwidthBps = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero bandwidth should fail")
	}
	bad = p
	bad.Sheet = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("nil sheet should fail")
	}
	bad = p
	bad.StateObjectBytes = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative state size should fail")
	}
}

func TestPaperPredictComponentsPositive(t *testing.T) {
	m := NewPaper(testParams())
	pr, err := m.Predict(cfg(1024, 2, 2, 256, 1024))
	if err != nil {
		t.Fatal(err)
	}
	if pr.MapSec <= 0 || pr.CoordSec <= 0 || pr.ReduceSec <= 0 {
		t.Fatalf("non-positive time component: %+v", pr)
	}
	if pr.LambdaCost <= 0 || pr.RequestCost <= 0 || pr.StorageCost <= 0 {
		t.Fatalf("non-positive cost component: %+v", pr)
	}
	if pr.TotalSec() != pr.MapSec+pr.CoordSec+pr.ReduceSec {
		t.Fatal("TotalSec is not the sum of phases")
	}
	if len(pr.StepSec) != pr.Orch.NumSteps() {
		t.Fatalf("StepSec has %d entries for %d steps", len(pr.StepSec), pr.Orch.NumSteps())
	}
	sum := 0.0
	for _, s := range pr.StepSec {
		sum += s
	}
	if math.Abs(sum-pr.ReduceSec) > 1e-9 {
		t.Fatalf("step times sum %v != ReduceSec %v", sum, pr.ReduceSec)
	}
}

func TestPaperMoreMemoryNeverSlower(t *testing.T) {
	m := NewPaper(testParams())
	prev := math.Inf(1)
	for _, mem := range []int{128, 256, 512, 1024, 1792, 3008} {
		pr, err := m.Predict(cfg(mem, 2, 2, mem, mem))
		if err != nil {
			t.Fatal(err)
		}
		if pr.TotalSec() > prev+1e-9 {
			t.Fatalf("JCT increased when memory grew to %d MB", mem)
		}
		prev = pr.TotalSec()
	}
}

func TestPaperSpeedFlatteningAboveFloor(t *testing.T) {
	m := NewPaper(testParams())
	at1792, _ := m.Predict(cfg(1792, 2, 2, 1792, 1792))
	at3008, _ := m.Predict(cfg(3008, 2, 2, 3008, 3008))
	if math.Abs(at1792.TotalSec()-at3008.TotalSec()) > 1e-9 {
		t.Fatalf("time should flatten above the floor: %v vs %v",
			at1792.TotalSec(), at3008.TotalSec())
	}
	if at3008.TotalCost() <= at1792.TotalCost() {
		t.Fatal("bigger memory above the floor must cost strictly more")
	}
}

// TestPaperDAGEdgeDecomposition: with kM = 1 (so j = N = jHat), the four
// Fig. 5 edge weights must sum exactly to the full model's objective.
func TestPaperDAGEdgeDecomposition(t *testing.T) {
	m := NewPaper(testParams())
	c := cfg(512, 1, 3, 256, 1024)
	pr, err := m.Predict(c)
	if err != nil {
		t.Fatal(err)
	}
	e1 := m.MapperTime(c.MapperMemMB, c.ObjsPerMapper)
	e2, err := m.TransferTime(c.ObjsPerMapper, c.ObjsPerReducer)
	if err != nil {
		t.Fatal(err)
	}
	e3 := m.CoordCompute(c.CoordMemMB)
	e4, err := m.ReduceCompute(c.ReducerMemMB, c.ObjsPerReducer)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs((e1 + e2 + e3 + e4) - pr.TotalSec()); diff > 1e-9 {
		t.Fatalf("edge sum %v != objective %v (diff %v)", e1+e2+e3+e4, pr.TotalSec(), diff)
	}
}

// TestPaperCostEdgeDecomposition: with kM = 1 (jHat exact) and the
// reducer memory equal to the sHat estimate, the four cost-mode edge
// weights must sum to the full model's cost objective.
func TestPaperCostEdgeDecomposition(t *testing.T) {
	m := NewPaper(testParams())
	c := cfg(512, 1, 3, 256, m.sHat())
	pr, err := m.Predict(c)
	if err != nil {
		t.Fatal(err)
	}
	e1 := m.MapperCost(c.MapperMemMB, c.ObjsPerMapper)
	e2, err := m.GlueCost(c.ObjsPerMapper, c.ObjsPerReducer)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := m.CoordCost(c.CoordMemMB, c.ObjsPerReducer)
	if err != nil {
		t.Fatal(err)
	}
	e4, err := m.ReduceCost(c.ReducerMemMB, c.ObjsPerReducer)
	if err != nil {
		t.Fatal(err)
	}
	sum := e1 + e2 + e3 + e4
	if diff := math.Abs(sum - float64(pr.TotalCost())); diff > 1e-12 {
		t.Fatalf("cost edge sum %v != objective %v (diff %v)", sum, pr.TotalCost(), diff)
	}
}

func TestPaperCostEdgesPositiveAcrossSpace(t *testing.T) {
	m := NewPaper(testParams())
	for kR := 1; kR <= 12; kR++ {
		for _, mem := range []int{128, 1024, 3008} {
			if c := m.MapperCost(mem, kR); c <= 0 {
				t.Fatalf("MapperCost(%d,%d) = %v", mem, kR, c)
			}
			if g, err := m.GlueCost(1, kR); err != nil || g <= 0 {
				t.Fatalf("GlueCost(1,%d) = %v, %v", kR, g, err)
			}
			if cc, err := m.CoordCost(mem, kR); err != nil || cc <= 0 {
				t.Fatalf("CoordCost(%d,%d) = %v, %v", mem, kR, cc, err)
			}
			if rc, err := m.ReduceCost(mem, kR); err != nil || rc <= 0 {
				t.Fatalf("ReduceCost(%d,%d) = %v, %v", mem, kR, rc, err)
			}
		}
	}
}

func TestMaxKMFor(t *testing.T) {
	cases := []struct{ j, n, want int }{
		{12, 12, 1}, {6, 12, 2}, {4, 12, 3}, {1, 12, 12}, {5, 12, 3}, {20, 12, 1},
	}
	for _, c := range cases {
		if got := maxKMFor(c.j, c.n); got != c.want {
			t.Errorf("maxKMFor(%d,%d) = %d, want %d", c.j, c.n, got, c.want)
		}
	}
}

func TestFeasibleConstraints(t *testing.T) {
	p := testParams()
	orch, _ := mapreduce.Orchestrate(12, 2, 2)
	if err := Feasible(p, orch); err != nil {
		t.Fatalf("small job should be feasible: %v", err)
	}
	// Tighten the lambda limit below the mapper count.
	p.MaxLambdas = 3
	orch, _ = mapreduce.Orchestrate(12, 1, 2)
	if err := Feasible(p, orch); err == nil {
		t.Fatal("12 mappers with R=3 should be infeasible")
	}
	// Shrink the store's object limit below the working set.
	p = testParams()
	p.Sheet.Store.MaxObjectBytes = 1 << 20
	orch, _ = mapreduce.Orchestrate(12, 12, 2)
	if err := Feasible(p, orch); err == nil {
		t.Fatal("96 MB object with a 1 MB store limit should be infeasible")
	}
}

func TestPaperReduceShapeGeometric(t *testing.T) {
	// 12 objects, kM=1 -> 12 mappers; kR=2 -> steps 6,3,2,1.
	m := NewPaper(testParams())
	orch, err := mapreduce.Orchestrate(12, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	shapes := m.reduceShape(orch)
	if len(shapes) != 4 {
		t.Fatalf("%d steps, want 4", len(shapes))
	}
	D := float64(m.P.Job.TotalBytes())
	if math.Abs(shapes[0].totalIn-D*0.10) > 1e-6 {
		t.Fatalf("q0 = %v, want alpha*D", shapes[0].totalIn)
	}
	for p, s := range shapes {
		beta := m.P.Job.Profile.ReduceOutputRatio
		if math.Abs(s.totalOut-s.totalIn*beta) > 1e-6 {
			t.Fatalf("step %d: out %v != beta*in %v", p, s.totalOut, s.totalIn)
		}
		if p > 0 && math.Abs(s.totalIn-shapes[p-1].totalOut) > 1e-6 {
			t.Fatalf("step %d input does not chain from step %d output", p, p-1)
		}
		if s.busyIn <= 0 || s.busyIn > s.totalIn+1e-9 {
			t.Fatalf("step %d busiest reducer input %v out of range (total %v)", p, s.busyIn, s.totalIn)
		}
	}
	Q, R := qTotals(shapes)
	if Q <= 0 || R <= 0 || R >= Q {
		t.Fatalf("Q=%v R=%v (beta<1 requires R<Q)", Q, R)
	}
}

func TestPaperSingleReducerNotFree(t *testing.T) {
	// The default per-step model must charge a single all-consuming
	// reducer for its full sequential input; literal Eq. 9 (Aggregate)
	// charges the same totals either way, which is exactly its blind
	// spot. Dispatch latency is zeroed so the comparison isolates the
	// data-path terms.
	p := testParams()
	p.DispatchLatency = 0
	m := NewPaper(p)
	wide, err := m.Predict(cfg(1024, 1, 3, 1024, 1024)) // parallel reducers
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := m.Predict(cfg(1024, 1, 12, 1024, 1024)) // one reducer eats all 12
	if err != nil {
		t.Fatal(err)
	}
	if narrow.ReduceSec <= wide.StepSec[0] {
		t.Fatalf("single-reducer step %v should cost at least a parallel step %v",
			narrow.ReduceSec, wide.StepSec[0])
	}
}

func TestFewerStepsLessTransfer(t *testing.T) {
	// More objects per reducer -> fewer steps -> less ephemeral data
	// movement (the Fig. 1 mechanism).
	m := NewPaper(testParams())
	deep, err := m.TransferTime(1, 2) // 12 mappers, deep cascade
	if err != nil {
		t.Fatal(err)
	}
	shallow, err := m.TransferTime(1, 12) // single step
	if err != nil {
		t.Fatal(err)
	}
	if shallow >= deep {
		t.Fatalf("shallow cascade transfer %v should beat deep %v", shallow, deep)
	}
}

func TestPredictRejectsBadConfig(t *testing.T) {
	m := NewPaper(testParams())
	if _, err := m.Predict(cfg(1024, 0, 2, 1024, 1024)); err == nil {
		t.Fatal("kM=0 should fail")
	}
	if _, err := m.Predict(cfg(1024, 99, 2, 1024, 1024)); err == nil {
		t.Fatal("kM>N should fail")
	}
	e := NewExact(testParams())
	if _, err := e.Predict(cfg(1024, 2, 0, 1024, 1024)); err == nil {
		t.Fatal("kR=0 should fail")
	}
}

func TestExactBilledSec(t *testing.T) {
	m := NewExact(testParams())
	cases := []struct{ in, want float64 }{
		{0, 0},
		{0.001, 0.001},
		{0.0010001, 0.002},
		{0.0004, 0.001},
		{1.0, 1.0},
	}
	for _, c := range cases {
		if got := m.billedSec(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("billedSec(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestExactSkewRaisesMapTime(t *testing.T) {
	// 12 objects at kM=7 -> loads (7,5): map time governed by the 7-load
	// mapper, worse than kM=6 -> (6,6).
	e := NewExact(testParams())
	balanced, err := e.Predict(cfg(1024, 6, 3, 1024, 1024))
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := e.Predict(cfg(1024, 7, 3, 1024, 1024))
	if err != nil {
		t.Fatal(err)
	}
	if skewed.MapSec <= balanced.MapSec {
		t.Fatalf("skewed map %v should exceed balanced %v", skewed.MapSec, balanced.MapSec)
	}
}

func TestExactVsPaperAgreeOnScale(t *testing.T) {
	// The two models differ (aggregate vs per-step max) but must agree
	// within a small factor on total time and cost.
	e := NewExact(testParams())
	pm := NewPaper(testParams())
	for _, c := range []mapreduce.Config{
		cfg(128, 1, 2, 128, 128),
		cfg(1024, 2, 2, 256, 1024),
		cfg(3008, 4, 3, 3008, 3008),
	} {
		ep, err := e.Predict(c)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := pm.Predict(c)
		if err != nil {
			t.Fatal(err)
		}
		ratio := pp.TotalSec() / ep.TotalSec()
		if ratio < 0.5 || ratio > 3.0 {
			t.Errorf("%v: paper/exact time ratio %v out of range", c, ratio)
		}
		cr := float64(pp.TotalCost()) / float64(ep.TotalCost())
		if cr < 0.3 || cr > 3.0 {
			t.Errorf("%v: paper/exact cost ratio %v out of range", c, cr)
		}
	}
}

func TestAggregateReduceAtLeastPerStepMax(t *testing.T) {
	// Eq. 9 charges reduce totals sequentially, so the aggregate-mode
	// reduce time can never be below the exact per-step-max time.
	e := NewExact(testParams())
	pm := NewPaper(testParams())
	pm.Aggregate = true
	c := cfg(1024, 1, 2, 1024, 1024)
	ep, _ := e.Predict(c)
	pp, _ := pm.Predict(c)
	if pp.ReduceSec < ep.ReduceSec-1e-9 {
		t.Fatalf("aggregate reduce %v < exact %v", pp.ReduceSec, ep.ReduceSec)
	}
}

func TestDefaultPaperReduceTracksExact(t *testing.T) {
	// The default per-step paper model should track the exact model's
	// reduce phase closely (it differs only in averaged object sizes).
	e := NewExact(testParams())
	pm := NewPaper(testParams())
	for _, c := range []mapreduce.Config{
		cfg(1024, 1, 2, 1024, 1024),
		cfg(512, 2, 3, 512, 512),
		cfg(128, 1, 12, 128, 128),
	} {
		ep, err := e.Predict(c)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := pm.Predict(c)
		if err != nil {
			t.Fatal(err)
		}
		ratio := pp.ReduceSec / ep.ReduceSec
		if ratio < 0.8 || ratio > 1.25 {
			t.Errorf("%v: paper/exact reduce ratio %v out of range", c, ratio)
		}
	}
}
