package mapreduce

import (
	"slices"
	"testing"
	"testing/quick"

	"astra/internal/workload"
)

// splitGreedy is the reference a Split must agree with: the greedy
// distribution of n objects into loads of k, the remainder on the last
// worker, as a per-worker slice.
func splitGreedy(n, k int) []int {
	loads := make([]int, 0, (n+k-1)/k)
	for n > 0 {
		take := min(k, n)
		loads = append(loads, take)
		n -= take
	}
	return loads
}

// loadsOf lists a split's per-worker loads.
func loadsOf(s Split) []int {
	loads := make([]int, s.Count())
	for i := range loads {
		loads[i] = s.Load(i)
	}
	return loads
}

// TestSplitMatchesGreedyReference: for every 1 <= k <= n <= 512 the closed
// form agrees with the per-worker slice on the worker count, every load,
// the maximum and the object count (the reference's loads sum to n).
func TestSplitMatchesGreedyReference(t *testing.T) {
	for n := 1; n <= 512; n++ {
		for k := 1; k <= n; k++ {
			s, ref := greedySplit(n, k), splitGreedy(n, k)
			if got := loadsOf(s); !slices.Equal(got, ref) {
				t.Fatalf("split(%d, %d): loads %v, reference %v", n, k, got, ref)
			}
			if s.Max() != slices.Max(ref) || s.Objects() != n {
				t.Fatalf("split(%d, %d): max %d objects %d, reference max %d", n, k, s.Max(), s.Objects(), slices.Max(ref))
			}
		}
	}
}

// referenceCascade is the reducing cascade built the way the paper's
// Table I recurrence reads, one per-worker slice per step: every step
// splits the previous step's outputs, k_R = 1 collapses to one reducer
// taking everything, and a single-step profile stops after one step.
func referenceCascade(j, kR int, singleStep bool) [][]int {
	if kR == 1 && !singleStep {
		return [][]int{{j}}
	}
	var steps [][]int
	for count := j; ; {
		loads := splitGreedy(count, kR)
		steps = append(steps, loads)
		count = len(loads)
		if singleStep || count <= 1 {
			return steps
		}
	}
}

// TestCascadeMatchesReference: for every 1 <= k_M <= n <= 64 and
// 1 <= k_R <= n+2, under both profile kinds, Step(p) lists the reference
// cascade's loads step by step, and NumSteps, Reducers and TotalLambdas
// count them.
func TestCascadeMatchesReference(t *testing.T) {
	for _, pf := range []workload.Profile{workload.WordCount, workload.Sort} {
		for n := 1; n <= 64; n++ {
			for kM := 1; kM <= n; kM++ {
				for kR := 1; kR <= n+2; kR++ {
					o, err := OrchestrateFor(pf, n, kM, kR)
					if err != nil {
						t.Fatal(err)
					}
					ref := referenceCascade(len(splitGreedy(n, kM)), kR, pf.SingleStepReduce)
					if o.NumSteps() != len(ref) {
						t.Fatalf("%s n=%d kM=%d kR=%d: %d steps, reference %d", pf.Name, n, kM, kR, o.NumSteps(), len(ref))
					}
					reducers := 0
					for p, loads := range ref {
						if got := loadsOf(o.Step(p)); !slices.Equal(got, loads) {
							t.Fatalf("%s n=%d kM=%d kR=%d: step %d loads %v, reference %v", pf.Name, n, kM, kR, p, got, loads)
						}
						reducers += len(loads)
					}
					if o.Reducers() != reducers || o.TotalLambdas() != o.Mappers()+1+reducers {
						t.Fatalf("%s n=%d kM=%d kR=%d: %d reducers, reference %d", pf.Name, n, kM, kR, o.Reducers(), reducers)
					}
				}
			}
		}
	}
}

// TestTableIExact reproduces the paper's Table I for 10 input objects.
func TestTableIExact(t *testing.T) {
	rows, err := TableI(10, []int{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	want := []TableIRow{
		{ObjectsPerLambda: 1, Mappers: 10, StepReducers: []int{1}},
		{ObjectsPerLambda: 2, Mappers: 5, StepReducers: []int{3, 2, 1}},
		{ObjectsPerLambda: 3, Mappers: 4, StepReducers: []int{2, 1}},
		{ObjectsPerLambda: 4, Mappers: 3, StepReducers: []int{1}},
		{ObjectsPerLambda: 5, Mappers: 2, StepReducers: []int{1}},
	}
	for i, w := range want {
		g := rows[i]
		if g.Mappers != w.Mappers || !slices.Equal(g.StepReducers, w.StepReducers) {
			t.Errorf("k=%d: got mappers=%d steps=%v, want mappers=%d steps=%v",
				w.ObjectsPerLambda, g.Mappers, g.StepReducers, w.Mappers, w.StepReducers)
		}
	}
}

// TestSkewedTail checks the Sec. II-C skew: 10 objects at k=5..9 split as
// (5,5), (6,4), (7,3), (8,2), (9,1).
func TestSkewedTail(t *testing.T) {
	want := map[int][]int{
		5: {5, 5}, 6: {6, 4}, 7: {7, 3}, 8: {8, 2}, 9: {9, 1},
	}
	for k, loads := range want {
		o, err := Orchestrate(10, k, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := loadsOf(o.MapperLoads); !slices.Equal(got, loads) {
			t.Errorf("k=%d: loads = %v, want %v", k, got, loads)
		}
	}
}

func TestOrchestrateSingleObject(t *testing.T) {
	o, err := Orchestrate(1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if o.Mappers() != 1 || o.NumSteps() != 1 || o.Reducers() != 1 {
		t.Fatalf("orchestration for 1 object: %+v", o)
	}
}

func TestOrchestrateKR1SingleStep(t *testing.T) {
	o, err := Orchestrate(10, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if o.NumSteps() != 1 || o.Step(0).Count() != 1 || o.Step(0).Load(0) != 10 {
		t.Fatalf("kR=1 should collapse to one all-consuming reducer: %+v", o.Step(0))
	}
}

func TestOrchestrateValidation(t *testing.T) {
	cases := []struct{ n, kM, kR int }{
		{0, 1, 1}, {-3, 1, 1}, {10, 0, 1}, {10, 11, 1}, {10, 1, 0}, {10, 1, -2},
	}
	for _, c := range cases {
		if _, err := Orchestrate(c.n, c.kM, c.kR); err == nil {
			t.Errorf("Orchestrate(%d,%d,%d) should fail", c.n, c.kM, c.kR)
		}
	}
}

func TestTableIIIConsistentRows(t *testing.T) {
	// Table III rows that are internally consistent with the ceil cascade.
	// WordCount 1 GB: 20 objects, 2/mapper, 2/reducer -> 10 mappers, 11
	// reducers in 4 steps.
	o, err := Orchestrate(20, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if o.Mappers() != 10 || o.Reducers() != 11 || o.NumSteps() != 4 {
		t.Errorf("WC1GB: mappers=%d reducers=%d steps=%d, want 10/11/4",
			o.Mappers(), o.Reducers(), o.NumSteps())
	}
	// WordCount 10 GB: 24 objects, 8/mapper, 11/reducer -> 3 mappers,
	// 1 reducer, 1 step.
	o, err = Orchestrate(24, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	if o.Mappers() != 3 || o.Reducers() != 1 || o.NumSteps() != 1 {
		t.Errorf("WC10GB: mappers=%d reducers=%d steps=%d, want 3/1/1",
			o.Mappers(), o.Reducers(), o.NumSteps())
	}
	// Query: 202 objects, 1/mapper, 11/reducer -> 202 mappers, 22
	// reducers (19+2+1). The paper lists 22 reducers too; its "4 steps"
	// is off by one against its own Table I recurrence (see EXPERIMENTS.md).
	o, err = Orchestrate(202, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	if o.Mappers() != 202 || o.Reducers() != 22 {
		t.Errorf("Query: mappers=%d reducers=%d, want 202/22", o.Mappers(), o.Reducers())
	}
}

// Property: every step consumes exactly the previous step's outputs, the
// cascade converges to one reducer, and loads sum correctly.
func TestOrchestrateInvariantsProperty(t *testing.T) {
	f := func(nRaw, kMRaw, kRRaw uint8) bool {
		n := int(nRaw)%300 + 1
		kM := int(kMRaw)%n + 1
		kR := int(kRRaw)%16 + 1
		o, err := Orchestrate(n, kM, kR)
		if err != nil {
			return false
		}
		sum := 0
		for _, l := range loadsOf(o.MapperLoads) {
			if l <= 0 || l > kM {
				return false
			}
			sum += l
		}
		if sum != n {
			return false
		}
		prev := o.Mappers()
		for p := 0; p < o.NumSteps(); p++ {
			s := o.Step(p)
			if s.Objects() != prev {
				return false
			}
			if kR > 1 {
				for _, l := range loadsOf(s) {
					if l <= 0 || l > kR {
						return false
					}
				}
			}
			prev = s.Count()
		}
		return prev == 1 // converges to a single final reducer
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalLambdas(t *testing.T) {
	o, err := Orchestrate(10, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 5 mappers + 1 coordinator + 6 reducers (3+2+1).
	if o.TotalLambdas() != 12 {
		t.Fatalf("TotalLambdas = %d, want 12", o.TotalLambdas())
	}
}
