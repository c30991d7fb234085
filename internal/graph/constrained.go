package graph

// csLabel is a partial path in the bicriteria search, allocated from the
// per-search slab arena. prev is the arena index of the predecessor label
// (-1 for the root), so a label is a flat 24-byte record with no pointers
// for the collector to trace, and the whole arena recycles through the
// scratch pool.
type csLabel struct {
	w, side float64
	node    int32
	prev    int32
}

// pathFromArena rebuilds the node sequence of a settled label by walking
// prev indices through the arena.
func pathFromArena(labels []csLabel, idx int32) Path {
	l := labels[idx]
	hops := 0
	for at := idx; at >= 0; at = labels[at].prev {
		hops++
	}
	nodes := make([]int, hops)
	for at, i := idx, hops-1; at >= 0; at, i = labels[at].prev, i-1 {
		nodes[i] = int(labels[at].node)
	}
	return Path{Nodes: nodes, W: l.w, Side: l.side}
}
