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

// searchScratch is all the state of one search; a frozen Graph holds
// none. It carries the shortest-path sweep's dist/prev arrays, the edges
// Algorithm 1's rounds ban, and the label-setting search's arena and
// heap. Scratches are pooled via sync.Pool and resized to the graph at
// hand, so Algorithm 1's rounds and concurrent searches on one template
// recycle buffers instead of reallocating per search.
type searchScratch struct {
	// Per-node search state. The sweep keeps each node's distance in
	// dist; the label-setting search keeps the side it last settled there.
	dist []float64
	prev []int32

	// Bans. bannedEdge is indexed by CSR edge index and kept all-zero
	// between uses: putScratch unsets exactly the bits recorded in
	// bannedIdx, so clearing costs O(bans), not O(edges).
	bannedEdge bitset
	bannedIdx  []int32

	// Label-setting state: the label slab arena, its heap, and the
	// expanded labels with a budget discard, which its certificate
	// reads.
	labels     []csLabel
	lheap      heap4
	discarders []int32
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
	} else {
		sc.dist = make([]float64, n)
		sc.prev = make([]int32, n)
	}
	if len(sc.bannedEdge)<<6 < m {
		sc.bannedEdge = newBitset(m)
	}
}

// ban flags edge ei for the rest of the search.
func (sc *searchScratch) ban(ei int32) {
	if !sc.bannedEdge.get(ei) {
		sc.bannedEdge.set(ei)
		sc.bannedIdx = append(sc.bannedIdx, ei)
	}
}
