package graph

// heap4 is a non-interface 4-ary index min-heap: parallel arrays of
// label-arena index and float64 priority, the label-setting search's
// queue (the unconstrained searches are sweeps and need none). It
// replaces container/heap there — pushing through the heap.Interface
// boxes every item into an interface value, one heap allocation per
// push, which dominated the planner's allocation profile. The 4-ary shape halves the tree depth of a binary heap and
// keeps the child scan inside one cache line.
type heap4 struct {
	item []int32
	pri  []float64
}

func (h *heap4) len() int { return len(h.item) }

func (h *heap4) reset() {
	h.item = h.item[:0]
	h.pri = h.pri[:0]
}

// push inserts an item with the given priority.
func (h *heap4) push(x int32, p float64) {
	h.item = append(h.item, x)
	h.pri = append(h.pri, p)
	i := len(h.item) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if h.pri[parent] <= p {
			break
		}
		h.item[i] = h.item[parent]
		h.pri[i] = h.pri[parent]
		i = parent
	}
	h.item[i] = x
	h.pri[i] = p
}

// pop removes and returns the minimum-priority item.
func (h *heap4) pop() (int32, float64) {
	top, tp := h.item[0], h.pri[0]
	last := len(h.item) - 1
	x, p := h.item[last], h.pri[last]
	h.item = h.item[:last]
	h.pri = h.pri[:last]
	if last > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= last {
				break
			}
			end := c + 4
			if end > last {
				end = last
			}
			best := c
			for j := c + 1; j < end; j++ {
				if h.pri[j] < h.pri[best] {
					best = j
				}
			}
			if p <= h.pri[best] {
				break
			}
			h.item[i] = h.item[best]
			h.pri[i] = h.pri[best]
			i = best
		}
		h.item[i] = x
		h.pri[i] = p
	}
	return top, tp
}
