package graph

import (
	"sync"

	"astra/internal/telemetry"
)

// bitset is a fixed-capacity bit vector indexed by int32. The zero-length
// bitset is valid and empty.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)>>6) }

func (b bitset) set(i int32)      { b[i>>6] |= 1 << (uint32(i) & 63) }
func (b bitset) unset(i int32)    { b[i>>6] &^= 1 << (uint32(i) & 63) }
func (b bitset) get(i int32) bool { return b[i>>6]&(1<<(uint32(i)&63)) != 0 }

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

// searchScratch is the reusable working memory of one search: the
// shortest-path sweep's dist/prev arrays, Yen's spur-ban sets, and the
// constrained solver's label arena, per-node Pareto fronts and label
// heap. Scratches are pooled via sync.Pool and resized to the graph at
// hand, so Algorithm 1's destructive rounds and Yen's concurrent spur
// searches recycle buffers instead of reallocating per search.
type searchScratch struct {
	// Shortest-path sweep state, indexed by node.
	dist []float64
	prev []int32

	// Yen spur bans. bannedEdge is indexed by CSR edge index and kept
	// all-zero between uses: putScratch unsets exactly the bits recorded
	// in bannedIdx, so clearing costs O(bans), not O(edges).
	bannedNode []bool
	bannedEdge bitset
	bannedIdx  []int32

	// Constrained-search state: the label slab arena and the per-node
	// Pareto fronts (arena indices sorted by ascending w).
	labels []csLabel
	fronts [][]int32
	lheap  heap4
}

var scratchPool sync.Pool

// getScratch returns a scratch sized for g, reusing a pooled one when
// available. The telemetry registry may be nil; pool hits are surfaced
// through the plan/scratch-reuse counter.
func (g *Graph) getScratch(tel *telemetry.Registry) *searchScratch {
	g.freeze()
	sc, _ := scratchPool.Get().(*searchScratch)
	if sc == nil {
		sc = &searchScratch{}
	} else {
		tel.Counter(telemetry.MSearchScratchReuse).Inc()
	}
	sc.ensure(g.n, len(g.to))
	return sc
}

// putScratch returns a scratch to the pool, restoring the all-zero
// banned-edge invariant first.
func putScratch(sc *searchScratch) {
	for _, ei := range sc.bannedIdx {
		sc.bannedEdge.unset(ei)
	}
	sc.bannedIdx = sc.bannedIdx[:0]
	scratchPool.Put(sc)
}

// ensure sizes the buffers for a graph with n nodes and m CSR edges.
// Node-indexed buffers are resliced (growing only when capacity is
// short); the banned-edge bitset is replaced when too small, which is
// safe because it is all-zero between uses.
func (sc *searchScratch) ensure(n, m int) {
	if cap(sc.dist) >= n {
		sc.dist = sc.dist[:n]
		sc.prev = sc.prev[:n]
		sc.bannedNode = sc.bannedNode[:n]
	} else {
		sc.dist = make([]float64, n)
		sc.prev = make([]int32, n)
		sc.bannedNode = make([]bool, n)
	}
	if cap(sc.fronts) >= n {
		sc.fronts = sc.fronts[:n]
	} else {
		old := sc.fronts
		sc.fronts = make([][]int32, n)
		copy(sc.fronts, old)
	}
	if len(sc.bannedEdge)<<6 < m {
		sc.bannedEdge = newBitset(m)
	}
}

// banEdges flags every live parallel edge u->v in the scratch's
// banned-edge set, matching the (u,v)-keyed semantics of the map this
// bitset replaced.
func (sc *searchScratch) banEdges(g *Graph, u, v int) {
	for ei := g.off[u]; ei < g.off[u+1]; ei++ {
		if !g.removed.get(ei) && g.to[ei] == int32(v) && !sc.bannedEdge.get(ei) {
			sc.bannedEdge.set(ei)
			sc.bannedIdx = append(sc.bannedIdx, ei)
		}
	}
}
