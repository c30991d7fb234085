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
// A frozen graph never changes, so its bounds hold for its lifetime.
type Bounds struct {
	WToGo    []float64
	SideToGo []float64
}

// ToGoBounds computes Bounds for dst with one backward pull over the
// forward CSR: node ids are a topological order, so sweeping u down from
// dst-1, every edge u -> v reaches a node whose bounds are already final,
// and u's are the minimum of bound[v] + weight over its edges, for both
// weights at once. That is the sum a reverse Dijkstra forms, in the same
// operand order, so the bounds are its bits. Nodes above dst cannot reach
// it and stay +Inf. SideToGo[src] is the global minimum achievable Side
// of any src→dst path — the fastest possible plan when Side carries time
// — which callers get for free.
func (g *Graph) ToGoBounds(dst int) *Bounds {
	g.freeze()
	b := &Bounds{WToGo: make([]float64, g.n), SideToGo: make([]float64, g.n)}
	telemetry.DoPhase(context.Background(), telemetry.PhaseDijkstra, func(context.Context) {
		wToGo, sideToGo := b.WToGo, b.SideToGo
		for v := dst + 1; v < g.n; v++ {
			wToGo[v], sideToGo[v] = math.Inf(1), math.Inf(1)
		}
		off, to, ew, es := g.off, g.to, g.w, g.side
		for u := dst - 1; u >= 0; u-- {
			bw, bs := math.Inf(1), math.Inf(1)
			for ei := off[u]; ei < off[u+1]; ei++ {
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

// ConstrainedShortestPathBoundedCtx is ConstrainedShortestPathCtx over
// bounds the caller already holds (b must come from ToGoBounds on this
// graph and dst), with one more admissible pruning rule: a partial path
// at v is also discarded when its accumulated W plus WToGo[v] exceeds
// wLimit, an upper bound the caller already holds on the constrained
// optimum (for example the W of a feasible path found under a tighter
// budget). The rule only removes paths that cannot beat the known
// optimum, so the returned path is the one ConstrainedShortestPathCtx
// returns. Pass wLimit = +Inf when no upper bound is known, and pad a
// finite wLimit by a relative epsilon: the reverse-summed WToGo can land
// a few ULPs above the forward suffix sum of the same edges, so an exact
// optimum used as the limit may otherwise prune itself. ErrInfeasible
// may mean "every path was pruned by wLimit" rather than "no path meets
// budget"; callers holding a wLimit already have a point at least that
// good, so the distinction is moot. Labels skipped by the bounds are
// counted on the context's telemetry registry as
// astra_csp_bound_prunes_total.
func (g *Graph) ConstrainedShortestPathBoundedCtx(ctx context.Context, src, dst int, budget float64, b *Bounds, wLimit float64) (Path, error) {
	var p Path
	var err error
	telemetry.DoPhase(ctx, telemetry.PhaseCSP, func(ctx context.Context) {
		p, err = g.constrainedSearch(ctx, src, dst, budget, b, wLimit)
	})
	return p, err
}

// constrainedSearch is the label-setting loop behind both constrained
// entry points. Labels are popped by w + WToGo[node], an A* order whose
// heuristic is consistent (it is a true shortest-path distance), so the
// labels reaching a node are popped in non-decreasing w and the first
// label settled at dst is the constrained optimum.
//
// Dominance is one float per node (BOA*'s check; Hernández et al.,
// Artificial Intelligence 2023): the scratch's dist holds the side last
// settled at each node. Every label popped after it has a w at least as
// large, so one whose side is no smaller is dominated and skipped, and
// any other settles its node with a smaller side. The same test drops a
// push against its target's settled side, so a dominated label never
// reaches the arena.
func (g *Graph) constrainedSearch(ctx context.Context, src, dst int, budget float64, b *Bounds, wLimit float64) (Path, error) {
	if err := ctx.Err(); err != nil {
		return Path{}, err
	}
	if src == dst {
		return Path{Nodes: []int{src}}, nil
	}
	wToGo, sideToGo := b.WToGo, b.SideToGo
	// The root may already be hopeless: the fastest completion busts the
	// budget, or the cheapest busts the caller's upper bound.
	if sideToGo[src] > budget || wToGo[src] > wLimit {
		return Path{}, ErrInfeasible
	}
	tel := telemetry.FromContext(ctx)
	popped := tel.Counter(telemetry.MCSPLabelsPopped)
	relaxations := tel.Counter(telemetry.MSearchEdgesRelaxed)
	allocated := tel.Counter(telemetry.MCSPLabelsAllocated)
	boundPrunes := tel.Counter(telemetry.MCSPBoundPrunes)
	sc := g.getScratch(tel)
	defer putScratch(sc)
	settled := sc.dist
	for i := range settled {
		settled[i] = math.Inf(1)
	}
	labels := append(sc.labels[:0], csLabel{node: int32(src), prev: -1})
	h := &sc.lheap
	h.reset()
	h.push(0, wToGo[src])
	pops := 0
	var relaxed, pruned int64
	defer func() {
		sc.labels = labels // hand the grown arena back to the pool
		popped.Add(int64(pops))
		relaxations.Add(relaxed)
		allocated.Add(int64(len(labels)))
		boundPrunes.Add(pruned)
	}()
	off, to, ew, es := g.off, g.to, g.w, g.side
	dst32 := int32(dst)
	for h.len() > 0 {
		if pops++; pops%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return Path{}, err
			}
		}
		li, _ := h.pop()
		l := labels[li]
		if l.side >= settled[l.node] {
			continue
		}
		settled[l.node] = l.side
		if l.node == dst32 {
			return pathFromArena(labels, li), nil
		}
		for ei := off[l.node]; ei < off[l.node+1]; ei++ {
			v := to[ei]
			nw, ns := l.w+ew[ei], l.side+es[ei]
			if ns > budget {
				continue
			}
			if ns+sideToGo[v] > budget || nw+wToGo[v] > wLimit {
				pruned++
				continue
			}
			if ns >= settled[v] {
				continue
			}
			nidx := int32(len(labels))
			labels = append(labels, csLabel{w: nw, side: ns, node: v, prev: li})
			relaxed++
			h.push(nidx, nw+wToGo[v])
		}
	}
	if err := ctx.Err(); err != nil {
		return Path{}, err
	}
	return Path{}, ErrInfeasible
}
