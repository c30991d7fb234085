package graph

import (
	"context"
	"math"

	"astra/internal/telemetry"
)

// Bounds carries per-node admissible lower bounds on the remaining weight
// needed to reach one fixed destination: WToGo[v] is the minimum total W
// of any v→dst path and SideToGo[v] the minimum total Side, each computed
// independently (they generally belong to different paths). Because both
// are true single-criterion optima they never overestimate, so a search
// may discard any partial path whose accumulated weight plus the bound
// already violates its budget without losing the constrained optimum.
//
// Bounds are a snapshot of the graph at ToGoBounds time; mutating the
// graph afterwards (edge removal, AddEdge) invalidates them.
type Bounds struct {
	WToGo    []float64
	SideToGo []float64
}

// ToGoBounds computes Bounds for dst with one backward pull over the
// forward CSR (live edges only): node ids are a topological order, so
// sweeping u down from dst-1, every edge u -> v reaches a node whose
// bounds are already final, and u's are the minimum of bound[v] + weight
// over its edges, for both weights at once. That is the sum a reverse
// Dijkstra forms, in the same operand order, so the bounds are its bits.
// Nodes above dst cannot reach it and stay +Inf. The graph is not
// mutated, so concurrent searches may keep using g. SideToGo[src] is the
// global minimum achievable Side of any src→dst path — the fastest
// possible plan when Side carries time — which callers get for free.
func (g *Graph) ToGoBounds(dst int) *Bounds {
	g.freeze()
	b := &Bounds{WToGo: make([]float64, g.n), SideToGo: make([]float64, g.n)}
	telemetry.DoPhase(context.Background(), telemetry.PhaseDijkstra, func(context.Context) {
		wToGo, sideToGo := b.WToGo, b.SideToGo
		for v := dst + 1; v < g.n; v++ {
			wToGo[v], sideToGo[v] = math.Inf(1), math.Inf(1)
		}
		off, to, ew, es, removed := g.off, g.to, g.w, g.side, g.removed
		for u := dst - 1; u >= 0; u-- {
			bw, bs := math.Inf(1), math.Inf(1)
			for ei := off[u]; ei < off[u+1]; ei++ {
				if removed.get(ei) {
					continue
				}
				v := to[ei]
				if d := wToGo[v] + ew[ei]; d < bw {
					bw = d
				}
				if d := sideToGo[v] + es[ei]; d < bs {
					bs = d
				}
			}
			wToGo[u], sideToGo[u] = bw, bs
		}
	})
	return b
}

// ConstrainedShortestPathBoundedCtx is ConstrainedShortestPathCtx with
// two admissible pruning rules driven by precomputed to-go bounds:
//
//   - a partial path at v is discarded when its accumulated Side plus
//     SideToGo[v] already exceeds budget (no completion can meet the
//     constraint), and
//   - when its accumulated W plus WToGo[v] exceeds wLimit, an upper
//     bound the caller already holds on the constrained optimum (for
//     example the W of a feasible path found under a tighter budget).
//
// Both rules only ever remove paths that cannot beat the known optimum,
// so with b from ToGoBounds on the same graph the returned path is
// identical to the unbounded search's. Pass wLimit = +Inf when no upper
// bound is known, and pad a finite wLimit by a relative epsilon: the
// reverse-summed WToGo can land a few ULPs above the forward suffix sum
// of the same edges, so an exact optimum used as the limit may otherwise
// prune itself. ErrInfeasible may mean "every path was pruned by
// wLimit" rather than "no path meets budget"; callers holding a wLimit
// already have a point at least that good, so the distinction is moot.
// Labels skipped by the bounds are counted on the context's telemetry
// registry as astra_csp_bound_prunes_total.
func (g *Graph) ConstrainedShortestPathBoundedCtx(ctx context.Context, src, dst int, budget float64, b *Bounds, wLimit float64) (Path, error) {
	var p Path
	var err error
	telemetry.DoPhase(ctx, telemetry.PhaseCSP, func(ctx context.Context) {
		p, err = g.constrainedSearch(ctx, src, dst, budget, b, wLimit)
	})
	return p, err
}

// constrainedSearch is the label-setting core shared by the bounded and
// unbounded constrained entry points. With b == nil and wLimit = +Inf it
// is exactly the historical ConstrainedShortestPathCtx loop. With
// bounds, labels are popped by w + WToGo[node] instead of w — an A*
// ordering whose heuristic is consistent (it is a true shortest-path
// distance), so the first label settled at dst is still the constrained
// optimum while far fewer labels are expanded on the way.
func (g *Graph) constrainedSearch(ctx context.Context, src, dst int, budget float64, b *Bounds, wLimit float64) (Path, error) {
	if err := ctx.Err(); err != nil {
		return Path{}, err
	}
	if src == dst {
		return Path{Nodes: []int{src}}, nil
	}
	tel := telemetry.FromContext(ctx)
	popped := tel.Counter(telemetry.MCSPLabelsPopped)
	relaxations := tel.Counter(telemetry.MSearchEdgesRelaxed)
	allocated := tel.Counter(telemetry.MCSPLabelsAllocated)
	boundPrunes := tel.Counter(telemetry.MCSPBoundPrunes)
	var wToGo, sideToGo []float64
	if b != nil {
		wToGo, sideToGo = b.WToGo, b.SideToGo
		// The root may already be hopeless: the fastest completion busts
		// the budget, or the cheapest busts the caller's upper bound.
		if sideToGo[src] > budget || wToGo[src] > wLimit {
			return Path{}, ErrInfeasible
		}
	}
	sc := g.getScratch(tel)
	defer putScratch(sc)
	labels := sc.labels[:0]
	fronts := sc.fronts
	for i := range fronts {
		fronts[i] = fronts[i][:0]
	}
	h := &sc.lheap
	h.reset()
	labels = append(labels, csLabel{node: int32(src), prev: -1})
	fronts[src] = append(fronts[src], 0)
	if b != nil {
		h.push(0, wToGo[src])
	} else {
		h.push(0, 0)
	}
	pops := 0
	var relaxed, pruned int64
	defer func() {
		sc.labels = labels // hand the grown arena back to the pool
		popped.Add(int64(pops))
		relaxations.Add(relaxed)
		allocated.Add(int64(len(labels)))
		boundPrunes.Add(pruned)
	}()
	off, to, ew, es, removed := g.off, g.to, g.w, g.side, g.removed
	dst32 := int32(dst)
	for h.len() > 0 {
		if pops++; pops%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return Path{}, err
			}
		}
		li, _ := h.pop()
		l := labels[li]
		if l.node == dst32 {
			return pathFromArena(labels, li), nil
		}
		// A label is stale if a later insertion evicted it from its
		// node's Pareto front.
		if l.evicted {
			continue
		}
		for ei := off[l.node]; ei < off[l.node+1]; ei++ {
			if removed.get(ei) {
				continue
			}
			v := to[ei]
			nw, ns := l.w+ew[ei], l.side+es[ei]
			if ns > budget {
				continue
			}
			pri := nw
			if b != nil {
				if ns+sideToGo[v] > budget || nw+wToGo[v] > wLimit {
					pruned++
					continue
				}
				pri += wToGo[v]
			}
			front := fronts[v]
			lo := frontFloor(labels, front, nw)
			if frontDominated(labels, front, lo, nw, ns) {
				continue
			}
			nidx := int32(len(labels))
			labels = append(labels, csLabel{w: nw, side: ns, node: v, prev: li})
			fronts[v] = frontInsert(labels, front, lo, nidx, ns)
			relaxed++
			h.push(nidx, pri)
		}
	}
	if err := ctx.Err(); err != nil {
		return Path{}, err
	}
	return Path{}, ErrInfeasible
}
