package graph

import (
	"container/heap"
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// This file pins the CSR/arena search core to the pre-refactor solvers:
// refGraph below is a frozen copy of the old adjacency-list
// implementation (container/heap queues, pointer labels, identity-scan
// staleness checks), and the property tests assert that every solver
// returns byte-identical paths on random layered DAGs. Random float
// weights make exact W ties measure-zero, so tie-breaking differences
// between the reference's binary heaps and the topological sweep or the
// 4-ary label heap cannot mask a real divergence.

type refEdge struct {
	to      int
	w, side float64
	removed bool
}

type refGraph struct {
	n   int
	adj [][]refEdge
}

func newRefGraph(n int) *refGraph { return &refGraph{n: n, adj: make([][]refEdge, n)} }

func (g *refGraph) addEdge(u, v int, w, side float64) {
	g.adj[u] = append(g.adj[u], refEdge{to: v, w: w, side: side})
}

func (g *refGraph) clone() *refGraph {
	c := &refGraph{n: g.n, adj: make([][]refEdge, g.n)}
	for u, edges := range g.adj {
		c.adj[u] = append([]refEdge(nil), edges...)
	}
	return c
}

// edgeAt returns the live edge u->v a strict-< relaxation takes: the
// lowest-w one, the first on ties.
func (g *refGraph) edgeAt(u, v int) int {
	best := -1
	for i, e := range g.adj[u] {
		if !e.removed && e.to == v && (best < 0 || e.w < g.adj[u][best].w) {
			best = i
		}
	}
	return best
}

type refPQItem struct {
	node int
	dist float64
}

type refPQ []refPQItem

func (q refPQ) Len() int           { return len(q) }
func (q refPQ) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q refPQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x any)        { *q = append(*q, x.(refPQItem)) }
func (q *refPQ) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func (g *refGraph) dijkstra(src int) []int {
	dist := make([]float64, g.n)
	prev := make([]int, g.n)
	done := make([]bool, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	q := &refPQ{{node: src}}
	for q.Len() > 0 {
		u := heap.Pop(q).(refPQItem).node
		if done[u] {
			continue
		}
		done[u] = true
		for _, e := range g.adj[u] {
			if e.removed {
				continue
			}
			if nd := dist[u] + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				prev[e.to] = u
				heap.Push(q, refPQItem{node: e.to, dist: nd})
			}
		}
	}
	return prev
}

func (g *refGraph) assemble(src, dst int, prev []int) (Path, bool) {
	if src == dst {
		return Path{Nodes: []int{src}}, true
	}
	var rev []int
	for at := dst; at != -1; at = prev[at] {
		rev = append(rev, at)
		if at == src {
			break
		}
	}
	if len(rev) == 0 || rev[len(rev)-1] != src {
		return Path{}, false
	}
	nodes := make([]int, len(rev))
	for i := range rev {
		nodes[i] = rev[len(rev)-1-i]
	}
	p := Path{Nodes: nodes}
	for i := 0; i+1 < len(nodes); i++ {
		e := g.adj[nodes[i]][g.edgeAt(nodes[i], nodes[i+1])]
		p.W += e.w
		p.Side += e.side
	}
	return p, true
}

func (g *refGraph) shortestPath(src, dst int) (Path, bool) {
	return g.assemble(src, dst, g.dijkstra(src))
}

func (g *refGraph) algorithm1(src, dst int, budget float64) (Path, bool) {
	m := 0
	for _, edges := range g.adj {
		m += len(edges)
	}
	for iter := 0; iter <= m; iter++ {
		p, ok := g.assemble(src, dst, g.dijkstra(src))
		if !ok {
			return Path{}, false
		}
		side := 0.0
		violated := false
		for i := 0; i+1 < len(p.Nodes); i++ {
			ei := g.edgeAt(p.Nodes[i], p.Nodes[i+1])
			side += g.adj[p.Nodes[i]][ei].side
			if side > budget {
				g.adj[p.Nodes[i]][ei].removed = true
				violated = true
				break
			}
		}
		if !violated {
			return p, true
		}
	}
	return Path{}, false
}

type refLabel struct {
	node    int
	w, side float64
	prev    *refLabel
}

type refLabelPQ []*refLabel

func (q refLabelPQ) Len() int           { return len(q) }
func (q refLabelPQ) Less(i, j int) bool { return q[i].w < q[j].w }
func (q refLabelPQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refLabelPQ) Push(x any)        { *q = append(*q, x.(*refLabel)) }
func (q *refLabelPQ) Pop() any {
	old := *q
	n := len(old)
	l := old[n-1]
	*q = old[:n-1]
	return l
}

func (g *refGraph) constrained(src, dst int, budget float64) (Path, bool) {
	if src == dst {
		return Path{Nodes: []int{src}}, true
	}
	sets := make([][]*refLabel, g.n)
	start := &refLabel{node: src}
	sets[src] = []*refLabel{start}
	q := &refLabelPQ{start}
	for q.Len() > 0 {
		l := heap.Pop(q).(*refLabel)
		if l.node == dst {
			var rev []int
			for at := l; at != nil; at = at.prev {
				rev = append(rev, at.node)
			}
			nodes := make([]int, len(rev))
			for i := range rev {
				nodes[i] = rev[len(rev)-1-i]
			}
			return Path{Nodes: nodes, W: l.w, Side: l.side}, true
		}
		stale := true
		for _, o := range sets[l.node] {
			if o == l {
				stale = false
				break
			}
		}
		if stale {
			continue
		}
		for _, e := range g.adj[l.node] {
			if e.removed {
				continue
			}
			nw, ns := l.w+e.w, l.side+e.side
			if ns > budget {
				continue
			}
			dominated := false
			for _, o := range sets[e.to] {
				if o.w <= nw && o.side <= ns {
					dominated = true
					break
				}
			}
			if dominated {
				continue
			}
			nl := &refLabel{node: e.to, w: nw, side: ns, prev: l}
			kept := sets[e.to][:0]
			for _, o := range sets[e.to] {
				if nl.w <= o.w && nl.side <= o.side {
					continue
				}
				kept = append(kept, o)
			}
			sets[e.to] = append(kept, nl)
			heap.Push(q, nl)
		}
	}
	return Path{}, false
}

// randomPair builds the same random layered DAG as both a CSR Graph and
// a reference graph: the source, `layers` layers of `width` nodes, then
// the destination, with full bipartite edges between adjacent layers
// with random weights, plus a few random skip edges.
func randomPair(rng *rand.Rand, layers, width int) (*Graph, *refGraph, int, int) {
	n := 2 + layers*width
	src, dst := 0, n-1
	g := New(n)
	r := newRefGraph(n)
	add := func(u, v int, w, side float64) {
		g.AddEdge(u, v, w, side)
		r.addEdge(u, v, w, side)
	}
	node := func(l, i int) int { return 1 + l*width + i }
	for i := 0; i < width; i++ {
		add(src, node(0, i), rng.Float64()*10, rng.Float64()*10)
	}
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				add(node(l, i), node(l+1, j), rng.Float64()*10, rng.Float64()*10)
			}
		}
	}
	for i := 0; i < width; i++ {
		add(node(layers-1, i), dst, rng.Float64()*10, rng.Float64()*10)
	}
	// Skip edges exercise non-uniform degrees and parallel-edge handling.
	for s := 0; s < layers; s++ {
		l := rng.Intn(layers - 1)
		add(node(l, rng.Intn(width)), node(l+1, rng.Intn(width)), rng.Float64()*10, rng.Float64()*10)
	}
	return g, r, src, dst
}

func samePath(t *testing.T, name string, got Path, gotOK bool, want Path, wantOK bool) {
	t.Helper()
	if gotOK != wantOK {
		t.Fatalf("%s: feasibility mismatch: got ok=%v, reference ok=%v", name, gotOK, wantOK)
	}
	if !gotOK {
		return
	}
	if !reflect.DeepEqual(got.Nodes, want.Nodes) || got.W != want.W || got.Side != want.Side {
		t.Fatalf("%s: path mismatch:\n  got  %v W=%v Side=%v\n  want %v W=%v Side=%v",
			name, got.Nodes, got.W, got.Side, want.Nodes, want.W, want.Side)
	}
}

func TestDifferentialAgainstReferenceSolvers(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		layers := 2 + rng.Intn(3)
		width := 2 + rng.Intn(3)
		g, ref, src, dst := randomPair(rng, layers, width)
		budget := rng.Float64() * float64(layers+1) * 10

		sp, err := g.ShortestPath(src, dst)
		rp, rok := ref.shortestPath(src, dst)
		samePath(t, "dijkstra", sp, err == nil, rp, rok)

		cp, err := g.ConstrainedShortestPathCtx(context.Background(), src, dst, budget)
		rcp, rok := ref.constrained(src, dst, budget)
		samePath(t, "csp", cp, err == nil, rcp, rok)

		ap, err := g.Algorithm1Ctx(context.Background(), src, dst, budget)
		rap, rok := ref.clone().algorithm1(src, dst, budget)
		samePath(t, "algorithm1", ap, err == nil, rap, rok)
	}
}

// TestConcurrentConstrainedSharedGraph hammers one shared — initially
// unfrozen — graph with concurrent constrained searches. Run under
// -race it checks the lazy CSR freeze and the scratch pool; every
// goroutine must also agree on the result.
func TestConcurrentConstrainedSharedGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g, ref, src, dst := randomPair(rng, 4, 4)
	const budget = 35.0
	want, wantOK := ref.constrained(src, dst, budget)

	const goroutines = 8
	const iters = 50
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				p, err := g.ConstrainedShortestPathCtx(context.Background(), src, dst, budget)
				if (err == nil) != wantOK {
					errs <- "feasibility changed across concurrent runs"
					return
				}
				if err == nil && (!reflect.DeepEqual(p.Nodes, want.Nodes) || p.W != want.W || p.Side != want.Side) {
					errs <- "path changed across concurrent runs"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}
