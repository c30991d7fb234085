package graph

// csLabel is a Pareto-optimal partial path in the bicriteria search,
// allocated from the per-search slab arena. prev is the arena index of
// the predecessor label (-1 for the root), so a label is a flat 32-byte
// record with no pointers for the collector to trace, and the whole
// arena recycles through the scratch pool.
type csLabel struct {
	w, side float64
	node    int32
	prev    int32
	evicted bool
}

// frontFloor returns the number of front entries with w < target. The
// front is sorted by strictly ascending w (sides strictly descending),
// so this is a plain binary search over arena indices.
func frontFloor(labels []csLabel, front []int32, target float64) int {
	lo, hi := 0, len(front)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if labels[front[mid]].w < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// frontDominated reports whether (w, side) is weakly dominated by the
// node's Pareto front, given lo = frontFloor(labels, front, w). With the
// front sorted by w and sides strictly descending, the only candidate
// dominators are the entry just below w and an entry with exactly equal
// w — two O(1) probes instead of a scan over an unordered set.
func frontDominated(labels []csLabel, front []int32, lo int, w, side float64) bool {
	if lo > 0 && labels[front[lo-1]].side <= side {
		return true
	}
	if lo < len(front) && labels[front[lo]].w == w && labels[front[lo]].side <= side {
		return true
	}
	return false
}

// frontInsert adds the (non-dominated) label nidx to a node's Pareto
// front at position lo, evicting the contiguous run of entries the new
// label weakly dominates (their w >= the new label's and, sides being
// sorted descending, exactly the prefix with side >= the new side).
// Evicted labels are flagged in the arena so the pop loop can skip them
// without scanning the front. Returns the updated front slice.
func frontInsert(labels []csLabel, front []int32, lo int, nidx int32, side float64) []int32 {
	t := lo
	for t < len(front) && labels[front[t]].side >= side {
		labels[front[t]].evicted = true
		t++
	}
	if t == lo {
		front = append(front, 0)
		copy(front[lo+1:], front[lo:len(front)-1])
		front[lo] = nidx
		return front
	}
	front[lo] = nidx
	copy(front[lo+1:], front[t:])
	return front[:len(front)-(t-lo)+1]
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
