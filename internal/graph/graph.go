// Package graph provides the shortest-path machinery behind Astra's
// optimizer (Sec. IV of the paper): a one-pass shortest-path sweep, Yen's
// k-shortest simple paths, the paper's Algorithm 1 (shortest path with
// iterative removal of constraint-violating edges), and an exact
// label-setting solver for the weight-constrained shortest path problem.
//
// Every edge carries two values: W, the objective weight minimized by the
// search, and Side, the constrained resource accumulated along the path.
// For the paper's performance optimization (Eq. 16) W is phase time and
// Side is phase cost; for cost minimization (Eq. 20) the roles swap.
//
// Node ids are a topological order: AddEdge accepts u -> v only when
// u < v, as the configuration DAG numbers its columns left to right. So
// the unconstrained searches need no priority queue: one sweep over the
// nodes in id order relaxes every edge once, after all of its source's
// in-edges, in O(V+E) with sequential memory access (dijkstra), and the
// to-go bounds are one backward pull over the same arrays (ToGoBounds).
// Only the label-setting search keeps a heap.
//
// Storage is compressed sparse row (CSR): AddEdge appends to a flat
// arrival-order log, and the first search freezes the log into off/to/
// w/side arrays so every solver walks contiguous memory. A log added in
// source order (the DAG assembler's order) already is the CSR: freeze
// adopts its arrays in place and only builds off; any other order is
// placed by one counted pass. A frozen graph never changes again: every
// piece of per-search state — distances, predecessors, labels, and the
// edges Algorithm 1 and Yen's spurs ban — lives in a pooled scratch, so
// any number of searches share one graph. See DESIGN.md, "Memory layout
// of the search core".
package graph

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"astra/internal/telemetry"
)

// Errors returned by the solvers.
var (
	ErrNoPath     = errors.New("graph: no path")
	ErrInfeasible = errors.New("graph: no path satisfies the side constraint")
)

// Edge is a directed edge with an objective weight and a side weight.
type Edge struct {
	To   int
	W    float64
	Side float64
}

// Graph is a directed graph over nodes 0..N-1.
//
// AddEdge and Reserve require external synchronization and must come
// before the graph is frozen (by Freeze or the first search); a frozen
// graph is immutable, and searches may run on it concurrently.
type Graph struct {
	n int
	m int // edge count

	// Builder log in arrival order; handed to (or placed into) the CSR
	// arrays by freeze. While every edge has arrived in source order the
	// log keeps no per-edge source — deg's runs imply it — and lu stays
	// nil; the first edge out of order materializes lu from those runs.
	lu, lv []int32
	lw, ls []float64
	deg    []int32 // per-node log edge counts, n+1 long: freeze turns it into off
	last   int32   // the latest logged edge's source

	// Frozen CSR: node u's outgoing edges are indices off[u]..off[u+1]
	// of the parallel to/w/side arrays, in per-node insertion order.
	// The arrays are immutable once built and may be shared by clones.
	off     []int32
	to      []int32
	w, side []float64

	frozen atomic.Bool
	mu     sync.Mutex // serializes the lazy freeze among concurrent readers
}

// New creates a graph with n nodes and no edges.
func New(n int) *Graph {
	if n <= 0 {
		panic("graph: node count must be positive")
	}
	if int64(n) > math.MaxInt32 {
		panic("graph: node count exceeds int32 range")
	}
	return &Graph{n: n}
}

// NumNodes reports the node count.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges reports the edge count.
func (g *Graph) NumEdges() int { return g.m }

// AddEdge inserts a directed edge. An edge that does not ascend (v <= u),
// a negative objective weight and a frozen graph are rejected: the sweeps
// rely on ids being a topological order, every solver on non-negativity,
// and concurrent searches on a frozen graph never changing.
func (g *Graph) AddEdge(u, v int, w, side float64) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range", u, v))
	}
	if v <= u {
		panic(fmt.Sprintf("graph: edge (%d,%d) does not ascend; node ids must be a topological order", u, v))
	}
	if w < 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("graph: invalid weight %v on edge (%d,%d)", w, u, v))
	}
	if g.frozen.Load() {
		panic("graph: AddEdge on a frozen graph")
	}
	if g.deg == nil {
		g.deg = make([]int32, g.n+1)
	}
	if g.lu == nil && int32(u) < g.last {
		g.lu = g.sources()
	}
	if g.lu != nil {
		g.lu = append(g.lu, int32(u))
	}
	g.last = int32(u)
	g.lv = append(g.lv, int32(v))
	g.lw = append(g.lw, w)
	g.ls = append(g.ls, side)
	g.deg[u]++
	g.m++
}

// Reserve pre-sizes the builder log for at least m additional edges, so
// a caller that knows its edge count up front (the DAG assembler) pays
// one allocation instead of the append doubling cadence. Calling it on a
// frozen graph or with a non-positive m is a no-op.
func (g *Graph) Reserve(m int) {
	if m <= 0 || g.frozen.Load() {
		return
	}
	grow := func(s []float64) []float64 {
		if cap(s)-len(s) >= m {
			return s
		}
		ns := make([]float64, len(s), len(s)+m)
		copy(ns, s)
		return ns
	}
	growI := func(s []int32) []int32 {
		if cap(s)-len(s) >= m {
			return s
		}
		ns := make([]int32, len(s), len(s)+m)
		copy(ns, s)
		return ns
	}
	if g.lu != nil {
		g.lu = growI(g.lu)
	}
	g.lv = growI(g.lv)
	g.lw, g.ls = grow(g.lw), grow(g.ls)
	if g.deg == nil {
		g.deg = make([]int32, g.n+1)
	}
}

// sources lists the source of every logged edge, read off deg's runs; it
// is only valid while the log is in source order.
func (g *Graph) sources() []int32 {
	lu := make([]int32, 0, cap(g.lv))
	for u := 0; u < g.n; u++ {
		for k := int32(0); k < g.deg[u]; k++ {
			lu = append(lu, int32(u))
		}
	}
	return lu
}

// Freeze forces the lazy CSR build now. Searches freeze on first use
// anyway; callers that publish a graph to many goroutines (the template
// cache) freeze eagerly so readers never contend on the build lock.
func (g *Graph) Freeze() { g.freeze() }

// freeze turns the log into the CSR arrays and drops it: deg becomes off
// in place, and a log in source order becomes to/w/side as it stands; any
// other log is placed by one counted pass, which keeps each node's edges
// in arrival order, so both paths freeze the same edges to the same
// arrays. It is idempotent and safe to call from concurrent readers: the
// first caller builds, the rest observe the published arrays through the
// atomic flag.
func (g *Graph) freeze() {
	if g.frozen.Load() {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.frozen.Load() {
		return
	}
	off := g.deg
	if off == nil {
		off = make([]int32, g.n+1)
	}
	total := int32(0)
	for u, d := range off[:g.n] {
		off[u] = total
		total += d
	}
	off[g.n] = total
	if g.lu == nil {
		g.to, g.w, g.side = g.lv, g.lw, g.ls
	} else {
		g.to = make([]int32, total)
		g.w = make([]float64, total)
		g.side = make([]float64, total)
		pos := make([]int32, g.n)
		copy(pos, off[:g.n])
		for i, u := range g.lu {
			p := pos[u]
			pos[u] = p + 1
			g.to[p] = g.lv[i]
			g.w[p] = g.lw[i]
			g.side[p] = g.ls[i]
		}
	}
	g.off = off
	g.lu, g.lv, g.lw, g.ls, g.deg, g.last = nil, nil, nil, nil, nil, 0
	g.frozen.Store(true)
}

// EdgesFrom returns a copy of u's outgoing edges in insertion order.
// It lets callers compare graphs structurally (e.g. a parallel build
// against a serial one) without touching the adjacency storage.
func (g *Graph) EdgesFrom(u int) []Edge {
	if u < 0 || u >= g.n {
		return nil
	}
	g.freeze()
	if g.off[u] == g.off[u+1] {
		return nil
	}
	out := make([]Edge, 0, g.off[u+1]-g.off[u])
	for ei := g.off[u]; ei < g.off[u+1]; ei++ {
		out = append(out, Edge{To: int(g.to[ei]), W: g.w[ei], Side: g.side[ei]})
	}
	return out
}

// Path is a walk through the graph with its accumulated weights.
type Path struct {
	Nodes []int
	W     float64
	Side  float64
}

// edgeAt returns the CSR index of the edge u->v that a strict-< sweep
// relaxes: the lowest-W one not in banned, the first on ties; -1 if
// every u->v edge is banned or there is none.
func (g *Graph) edgeAt(u, v int, banned bitset) int32 {
	best := int32(-1)
	for ei := g.off[u]; ei < g.off[u+1]; ei++ {
		if g.to[ei] == int32(v) && !banned.get(ei) && (best < 0 || g.w[ei] < g.w[best]) {
			best = ei
		}
	}
	return best
}

// dijkstra computes shortest distances from src into the scratch's
// dist/prev buffers, honoring banned nodes and banned edges (both may be
// nil). Node ids are a topological order, so no heap is needed: sweeping
// u upward from src, every in-edge of u has been relaxed by the time u is
// reached, and dist[u] is final. The relaxation is Dijkstra's, strict <,
// so dist is bit-identical to a heap search's; on an exact tie prev keeps
// the lowest-id predecessor. It returns the number of successful edge
// relaxations, the search engine's basic unit of work, surfaced through
// telemetry; a sweep may improve a node more than once.
func (g *Graph) dijkstra(sc *searchScratch, src int, bannedNode []bool, bannedEdge bitset) int64 {
	g.freeze()
	dist, prev := sc.dist, sc.prev
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	for i := range prev {
		prev[i] = -1
	}
	if bannedNode != nil && bannedNode[src] {
		return 0
	}
	off, to, ew := g.off, g.to, g.w
	var relaxed int64
	dist[src] = 0
	for u := src; u < g.n; u++ {
		du := dist[u]
		if math.IsInf(du, 1) {
			continue
		}
		for ei := off[u]; ei < off[u+1]; ei++ {
			v := to[ei]
			if bannedNode != nil && bannedNode[v] {
				continue
			}
			if bannedEdge != nil && bannedEdge.get(ei) {
				continue
			}
			if nd := du + ew[ei]; nd < dist[v] {
				dist[v] = nd
				prev[v] = int32(u)
				relaxed++
			}
		}
	}
	return relaxed
}

// assemble reconstructs the path to dst from the scratch's predecessor
// array, accumulating both weights of the edges the sweep relaxed around
// the scratch's bans. The returned node slice is freshly allocated (it
// outlives the scratch).
func (g *Graph) assemble(sc *searchScratch, src, dst int) (Path, bool) {
	prev := sc.prev
	if src == dst {
		return Path{Nodes: []int{src}}, true
	}
	hops := 1
	for at := dst; at != src; hops++ {
		p := prev[at]
		if p < 0 {
			return Path{}, false
		}
		at = int(p)
	}
	nodes := make([]int, hops)
	for at, i := dst, hops-1; ; i-- {
		nodes[i] = at
		if at == src {
			break
		}
		at = int(prev[at])
	}
	p := Path{Nodes: nodes}
	for i := 0; i+1 < len(nodes); i++ {
		ei := g.edgeAt(nodes[i], nodes[i+1], sc.bannedEdge)
		p.W += g.w[ei]
		p.Side += g.side[ei]
	}
	return p, true
}

// ShortestPath returns the minimum-W path from src to dst.
func (g *Graph) ShortestPath(src, dst int) (Path, error) {
	return g.ShortestPathCtx(context.Background(), src, dst)
}

// ShortestPathCtx is ShortestPath on the caller's books: the one counted
// Dijkstra entry point. The run and its relaxations go to the context's
// telemetry registry (astra_search_dijkstra_runs_total,
// astra_search_edges_relaxed_total), so a planner that opens with a
// single unconstrained search reports it like every other solver pass.
// The graph is not mutated. A single Dijkstra is short enough that the
// context is only checked on entry.
func (g *Graph) ShortestPathCtx(ctx context.Context, src, dst int) (Path, error) {
	if err := ctx.Err(); err != nil {
		return Path{}, err
	}
	var p Path
	var err error
	telemetry.DoPhase(ctx, telemetry.PhaseDijkstra, func(ctx context.Context) {
		tel := telemetry.FromContext(ctx)
		sc := g.getScratch(tel)
		defer putScratch(sc)
		relaxed := g.dijkstra(sc, src, nil, nil)
		tel.Counter(telemetry.MSearchDijkstraRuns).Inc()
		tel.Counter(telemetry.MSearchEdgesRelaxed).Add(relaxed)
		var ok bool
		if p, ok = g.assemble(sc, src, dst); !ok {
			err = ErrNoPath
		}
	})
	return p, err
}
