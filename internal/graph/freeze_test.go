package graph

import (
	"context"
	"math/rand"
	"testing"
)

type logEdge struct {
	u, v    int
	w, side float64
}

// sourceOrderedEdges is a random DAG over n nodes as an edge list in
// source order: every node but the last has a few edges to later nodes,
// some of them parallel (u -> v twice with other weights), so a node's
// own edge order is observable.
func sourceOrderedEdges(rng *rand.Rand, n int) []logEdge {
	var edges []logEdge
	for u := 0; u+1 < n; u++ {
		for k := 1 + rng.Intn(4); k > 0; k-- {
			e := logEdge{u, u + 1 + rng.Intn(n-1-u), rng.Float64() * 10, rng.Float64() * 10}
			edges = append(edges, e)
			if rng.Intn(4) == 0 {
				e.w, e.side = rng.Float64()*10, rng.Float64()*10
				edges = append(edges, e)
			}
		}
	}
	return edges
}

// interleaved is the same edges in a random arrival order that keeps each
// node's edges in their relative order — the only order freeze promises
// to keep.
func interleaved(rng *rand.Rand, edges []logEdge) []logEdge {
	slots := make([]int, len(edges))
	for i, e := range edges {
		slots[i] = e.u
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	next := map[int]int{}
	byNode := map[int][]logEdge{}
	for _, e := range edges {
		byNode[e.u] = append(byNode[e.u], e)
	}
	out := make([]logEdge, len(edges))
	for i, u := range slots {
		out[i] = byNode[u][next[u]]
		next[u]++
	}
	return out
}

func buildLog(n int, edges []logEdge, reserve bool) *Graph {
	g := New(n)
	if reserve {
		g.Reserve(len(edges))
	}
	for _, e := range edges {
		g.AddEdge(e.u, e.v, e.w, e.side)
	}
	return g
}

// sameSearches checks that two graphs hold the same live edges, node by
// node in the same order with the same weights, and answer the same
// shortest-path and constrained queries from node 0 to the last node.
func sameSearches(t *testing.T, name string, a, b *Graph) {
	t.Helper()
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("%s: %d edges vs %d", name, a.NumEdges(), b.NumEdges())
	}
	for u := 0; u < a.NumNodes(); u++ {
		ea, eb := a.EdgesFrom(u), b.EdgesFrom(u)
		if len(ea) != len(eb) {
			t.Fatalf("%s: node %d has %d edges vs %d", name, u, len(ea), len(eb))
		}
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("%s: node %d edge %d is %+v vs %+v", name, u, i, ea[i], eb[i])
			}
		}
	}
	dst := a.NumNodes() - 1
	pa, errA := a.ShortestPath(0, dst)
	pb, errB := b.ShortestPath(0, dst)
	if (errA == nil) != (errB == nil) || !eqNodes(pa.Nodes, pb.Nodes) || pa.W != pb.W || pa.Side != pb.Side {
		t.Fatalf("%s: shortest paths %+v (%v) vs %+v (%v)", name, pa, errA, pb, errB)
	}
	if errA != nil {
		return
	}
	budget := pa.Side * 0.8
	ca, errA := a.ConstrainedShortestPathCtx(context.Background(), 0, dst, budget)
	cb, errB := b.ConstrainedShortestPathCtx(context.Background(), 0, dst, budget)
	if (errA == nil) != (errB == nil) || !eqNodes(ca.Nodes, cb.Nodes) || ca.W != cb.W || ca.Side != cb.Side {
		t.Fatalf("%s: constrained paths %+v (%v) vs %+v (%v)", name, ca, errA, cb, errB)
	}
}

// TestFreezeInPlaceMatchesCountedPass: a log added in source order is
// frozen in place — its value arrays become the CSR arrays — and freezes
// to the same graph as the same edges added out of order, which freeze
// places with the counted pass; with and without a Reserve.
func TestFreezeInPlaceMatchesCountedPass(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		edges := sourceOrderedEdges(rng, n)
		shuffled := interleaved(rng, edges)
		for _, reserve := range []bool{false, true} {
			inOrder := buildLog(n, edges, reserve)
			if inOrder.lu != nil {
				t.Fatalf("seed %d: a source-ordered log recorded per-edge sources", seed)
			}
			logTo, logW := inOrder.lv, inOrder.lw
			outOfOrder := buildLog(n, shuffled, reserve)
			sameSearches(t, "source order vs shuffled", inOrder, outOfOrder)
			if len(logTo) > 0 && (&inOrder.to[0] != &logTo[0] || &inOrder.w[0] != &logW[0]) {
				t.Fatalf("seed %d: freeze copied a source-ordered log", seed)
			}
		}
	}
}

// TestAddEdgeAfterFreeze: extending a frozen graph (thaw) keeps its live
// edges and appends the new ones whatever their order, and matches a
// graph built from the final edge list in one go; removed edges stay
// gone. Clones taken before the thaw keep the arrays they shared. A
// searched, thawed graph thaws again for one more edge, and the next
// search sweeps it.
func TestAddEdgeAfterFreeze(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		edges := sourceOrderedEdges(rng, n)
		g := buildLog(n, edges, true)
		g.Freeze()
		c := g.Clone()
		if &c.to[0] != &g.to[0] || &c.w[0] != &g.w[0] || &c.side[0] != &g.side[0] || &c.off[0] != &g.off[0] {
			t.Fatal("Clone copied the frozen arrays")
		}
		frozen := buildLog(n, edges, false)
		sameSearches(t, "clone", c, frozen)

		// Drop one edge, then add more: some in source order after the
		// last source, some before it.
		drop := edges[rng.Intn(len(edges))]
		if !g.removeEdge(drop.u, drop.v) {
			t.Fatal("edge to drop is missing")
		}
		var want []logEdge
		dropped := false
		for _, e := range edges {
			if !dropped && e.u == drop.u && e.v == drop.v {
				dropped = true
				continue
			}
			want = append(want, e)
		}
		for k := 0; k < 5; k++ {
			u := rng.Intn(n - 1)
			e := logEdge{u, u + 1 + rng.Intn(n-1-u), rng.Float64() * 10, rng.Float64() * 10}
			g.AddEdge(e.u, e.v, e.w, e.side)
			want = append(want, e)
		}
		sameSearches(t, "thawed", g, buildLog(n, want, false))
		sameSearches(t, "clone after thaw", c, frozen)

		g.AddEdge(0, n-1, 0, 0)
		if p, err := g.ShortestPath(0, n-1); err != nil || !eqNodes(p.Nodes, []int{0, n - 1}) {
			t.Fatalf("seed %d: after a free shortcut 0 -> %d, the search returned %+v (%v)", seed, n-1, p, err)
		}
	}
}
