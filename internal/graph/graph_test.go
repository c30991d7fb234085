package graph

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"astra/internal/telemetry"
)

// diamond builds the classic two-route test graph:
// 0 -> 1 -> 3 is fast but expensive, 0 -> 2 -> 3 slow but cheap.
func diamond() *Graph {
	g := New(4)
	g.AddEdge(0, 1, 1, 10)
	g.AddEdge(1, 3, 1, 10)
	g.AddEdge(0, 2, 5, 1)
	g.AddEdge(2, 3, 5, 1)
	return g
}

func eqNodes(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestShortestPathBasic(t *testing.T) {
	p, err := diamond().ShortestPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !eqNodes(p.Nodes, []int{0, 1, 3}) || p.W != 2 || p.Side != 20 {
		t.Fatalf("path = %+v", p)
	}
}

func TestShortestPathNoPath(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1, 0)
	if _, err := g.ShortestPath(0, 2); !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
}

func TestShortestPathSelf(t *testing.T) {
	p, err := diamond().ShortestPath(2, 2)
	if err != nil || len(p.Nodes) != 1 || p.W != 0 {
		t.Fatalf("self path = %+v, %v", p, err)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(2)
	for _, fn := range []func(){
		func() { g.AddEdge(-1, 0, 1, 0) },
		func() { g.AddEdge(0, 2, 1, 0) },
		func() { g.AddEdge(0, 1, -1, 0) },
		func() { g.AddEdge(0, 1, math.NaN(), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestAddEdgeRejectsDescending: node ids are a topological order, so an
// edge back to a lower id and a self-loop are both refused.
func TestAddEdgeRejectsDescending(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 2, 1, 0)
	for _, e := range [][2]int{{2, 1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge(%d, %d) did not panic", e[0], e[1])
				}
			}()
			g.AddEdge(e[0], e[1], 1, 0)
		}()
	}
	if g.NumEdges() != 1 {
		t.Fatalf("a refused edge was logged: %d edges", g.NumEdges())
	}
}

func TestAlgorithm1PicksFeasibleRoute(t *testing.T) {
	// Budget 5 rules out the fast route (side 20); Algorithm 1 must fall
	// back to the slow, cheap one.
	g := diamond()
	p, err := g.Algorithm1Ctx(context.Background(), 0, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !eqNodes(p.Nodes, []int{0, 2, 3}) {
		t.Fatalf("path = %+v", p)
	}
	if p.Side > 5 {
		t.Fatalf("budget violated: %+v", p)
	}
}

func TestAlgorithm1UnconstrainedKeepsShortest(t *testing.T) {
	p, err := diamond().Algorithm1Ctx(context.Background(), 0, 3, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if !eqNodes(p.Nodes, []int{0, 1, 3}) {
		t.Fatalf("path = %+v", p)
	}
}

func TestAlgorithm1Infeasible(t *testing.T) {
	g := diamond()
	if _, err := g.Algorithm1Ctx(context.Background(), 0, 3, 0.5); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestConstrainedShortestPathExact(t *testing.T) {
	p, err := diamond().ConstrainedShortestPathCtx(context.Background(), 0, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !eqNodes(p.Nodes, []int{0, 2, 3}) || p.W != 10 || p.Side != 2 {
		t.Fatalf("path = %+v", p)
	}
	// With a loose budget the unconstrained optimum comes back.
	p, err = diamond().ConstrainedShortestPathCtx(context.Background(), 0, 3, 100)
	if err != nil || p.W != 2 {
		t.Fatalf("path = %+v, %v", p, err)
	}
	// Infeasible budget.
	if _, err := diamond().ConstrainedShortestPathCtx(context.Background(), 0, 3, 1); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
}

func TestConstrainedBeatsAlgorithm1WhenGreedyFails(t *testing.T) {
	// A graph where Algorithm 1's edge removal discards an edge shared by
	// the only feasible path: 0->1 is shared; the violation happens on
	// 1->2 though, so build a sharper trap: two mid routes.
	//
	//      /-> 1 --(w1,s9)--> 3
	//    0 --> 2 --(w5,s1)--> 3
	// and an expensive first hop to 1 (w0.5, s9): total fast path side 18
	// exceeds budget 10; removal of a fast edge still leaves the cheap
	// route, so both agree here; the point of this test is agreement on
	// optimum value.
	g := New(4)
	g.AddEdge(0, 1, 0.5, 9)
	g.AddEdge(1, 3, 1, 9)
	g.AddEdge(0, 2, 5, 1)
	g.AddEdge(2, 3, 5, 1)
	exact, err := g.ConstrainedShortestPathCtx(context.Background(), 0, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if exact.W != 10 || exact.Side != 2 {
		t.Fatalf("exact = %+v", exact)
	}
}

// randomDAG builds a layered random DAG resembling the optimizer's shape,
// numbered like it: the source first, the destination last.
func randomDAG(rng *rand.Rand, layers, width int) (*Graph, int, int) {
	n := layers*width + 2
	g := New(n)
	src, dst := 0, n-1
	node := func(l, i int) int { return 1 + l*width + i }
	for i := 0; i < width; i++ {
		g.AddEdge(src, node(0, i), rng.Float64(), rng.Float64())
	}
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				g.AddEdge(node(l, i), node(l+1, j), rng.Float64()*10, rng.Float64()*10)
			}
		}
	}
	for i := 0; i < width; i++ {
		g.AddEdge(node(layers-1, i), dst, 0, 0)
	}
	return g, src, dst
}

// bruteBest enumerates all src->dst paths in the layered DAG.
func bruteBest(g *Graph, src, dst int, budget float64) (Path, bool) {
	best := Path{W: math.Inf(1)}
	var walk func(at int, nodes []int, w, side float64)
	walk = func(at int, nodes []int, w, side float64) {
		if at == dst {
			if side <= budget && w < best.W {
				best = Path{Nodes: append([]int{}, nodes...), W: w, Side: side}
			}
			return
		}
		for _, e := range g.EdgesFrom(at) {
			walk(e.To, append(nodes, e.To), w+e.W, side+e.Side)
		}
	}
	walk(src, []int{src}, 0, 0)
	return best, !math.IsInf(best.W, 1)
}

func TestConstrainedMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64, budgetRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g, src, dst := randomDAG(rng, 3, 3)
		budget := float64(budgetRaw%40) + 1
		want, feasible := bruteBest(g, src, dst, budget)
		got, err := g.ConstrainedShortestPathCtx(context.Background(), src, dst, budget)
		if !feasible {
			return errors.Is(err, ErrInfeasible)
		}
		if err != nil {
			return false
		}
		return math.Abs(got.W-want.W) < 1e-9 && got.Side <= budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAlgorithm1NeverViolatesBudgetProperty(t *testing.T) {
	f := func(seed int64, budgetRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g, src, dst := randomDAG(rng, 3, 3)
		budget := float64(budgetRaw%40) + 1
		p, err := g.Algorithm1Ctx(context.Background(), src, dst, budget)
		if err != nil {
			return true // infeasible claims are allowed for the heuristic
		}
		return p.Side <= budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAlgorithm1BansInTheScratch: Algorithm 1's deletions are bans in
// its own search scratch. The diamond's fast arm busts a budget of 15, so
// one round bans an edge and the next takes the slow arm; the graph keeps
// all four edges, its shortest path is still the fast arm, and a second
// run starts from no bans and repeats the first exactly.
func TestAlgorithm1BansInTheScratch(t *testing.T) {
	g := diamond()
	reg := telemetry.New()
	ctx := telemetry.NewContext(context.Background(), reg)
	for run := 1; run <= 2; run++ {
		p, err := g.Algorithm1Ctx(ctx, 0, 3, 15)
		if err != nil || !eqNodes(p.Nodes, []int{0, 2, 3}) || p.W != 10 || p.Side != 2 {
			t.Fatalf("run %d: Algorithm 1 = %+v, %v; want 0-2-3 at W 10, side 2", run, p, err)
		}
		if n := reg.Counter(telemetry.MAlg1EdgesRemoved).Value(); n != int64(run) {
			t.Fatalf("run %d: %d bans booked in total, want %d", run, n, run)
		}
		if g.NumEdges() != 4 {
			t.Fatalf("run %d: the graph has %d edges, want 4", run, g.NumEdges())
		}
		if sp, err := g.ShortestPath(0, 3); err != nil || !eqNodes(sp.Nodes, []int{0, 1, 3}) {
			t.Fatalf("run %d: shortest path after Algorithm 1 = %+v, %v", run, sp, err)
		}
	}
}

// TestParallelEdgesWeighTheRelaxedEdge: with two edges 0 -> 1 the sweep
// relaxes the lighter one, and every entry point reports that edge's
// weights, not the first-added one's. Under a budget the lighter edge
// busts, Algorithm 1 bans it and reports the heavier one it then takes.
func TestParallelEdgesWeighTheRelaxedEdge(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 5, 1)
	g.AddEdge(0, 1, 1, 3)
	g.AddEdge(1, 2, 1, 1)
	ctx := context.Background()
	b := g.ToGoBounds(2)
	check := func(name string, p Path, err error, wantW, wantSide float64) {
		t.Helper()
		if err != nil || !eqNodes(p.Nodes, []int{0, 1, 2}) || p.W != wantW || p.Side != wantSide {
			t.Fatalf("%s = %+v, %v; want 0-1-2 at W %v, side %v", name, p, err, wantW, wantSide)
		}
	}
	p, err := g.ShortestPath(0, 2)
	check("ShortestPath", p, err, 2, 4)
	p, err = g.Algorithm1Ctx(ctx, 0, 2, 10)
	check("Algorithm1Ctx", p, err, 2, 4)
	p, err = g.ConstrainedShortestPathCtx(ctx, 0, 2, 10)
	check("ConstrainedShortestPathCtx", p, err, 2, 4)
	p, err = g.ConstrainedShortestPathBoundedCtx(ctx, 0, 2, 10, b, math.Inf(1))
	check("ConstrainedShortestPathBoundedCtx", p, err, 2, 4)

	p, err = g.Algorithm1Ctx(ctx, 0, 2, 2.5)
	check("Algorithm1Ctx under 2.5", p, err, 6, 2)
	p, err = g.ConstrainedShortestPathCtx(ctx, 0, 2, 2.5)
	check("ConstrainedShortestPathCtx under 2.5", p, err, 6, 2)
}
