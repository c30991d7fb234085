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
// optimum, so the returned path has the W of the one
// ConstrainedShortestPathCtx returns, and is that path unless another
// ties it in W to the bit (the queue's layout breaks such a tie, and the
// labels the rule discards change the layout). Pass wLimit = +Inf when
// no upper bound is known, and pad a finite wLimit by a relative
// epsilon: the reverse-summed WToGo can land a few ULPs above the
// forward suffix sum of the same edges, so an exact optimum used as the
// limit may otherwise prune itself. ErrInfeasible may mean "every path
// was pruned by wLimit" rather than "no path meets budget"; callers
// holding a wLimit already have a point at least that good, so the
// distinction is moot. Labels skipped by the bounds are
// counted on the context's telemetry registry as
// astra_csp_bound_prunes_total.
func (g *Graph) ConstrainedShortestPathBoundedCtx(ctx context.Context, src, dst int, budget float64, b *Bounds, wLimit float64) (Path, error) {
	var p Path
	var err error
	telemetry.DoPhase(ctx, telemetry.PhaseCSP, func(ctx context.Context) {
		p, _, err = g.constrainedSearch(ctx, src, dst, budget, b, wLimit)
	})
	return p, err
}

// Certificate is the budget interval on which a constrained search's
// answer stays the unique constrained optimum. When Unique holds, a
// search from the same source with the same bounds at any budget in
// [Lo, Hi) — Hi = +Inf covers +Inf too — returns the same path, bit for
// bit. The search reads it off its own state when the goal pops:
//
//   - Lo is the largest side + SideToGo[node] over the path's labels
//     (or side itself, were a side weight negative): below it the
//     budget test discards one of them.
//   - Hi is the least side + SideToGo[node] over the labels the budget
//     test discarded whose priority w + WToGo[node] is within
//     W·(1+certEps): from Hi on, one of them would be admitted in time
//     to compete with the answer. Labels above that priority would pop
//     after the goal whatever the budget, so they never move Hi.
//   - Unique holds when nothing else came within W·(1+certEps) of the
//     answer: at the goal pop the queue's least priority exceeds it,
//     every label of the path popped within it, and no label at or
//     below it popped while another of exactly its priority was
//     queued. A near-tie could fall the other way at another budget,
//     and the queue's layout, which another budget changes, breaks an
//     exact tie, so a caller stores only unique answers.
//
// Every label a budget in [Lo, Hi) admits or discards differently from
// the search's own budget is, by those rules, either dominated by one it
// discards the same way or queued behind the goal, so the pops up to the
// goal are the same pops.
type Certificate struct {
	Lo, Hi float64
	Unique bool
}

// certEps is the relative margin a certificate demands between its
// answer and any rival priority: a few ULPs, because WToGo is summed in
// reverse and can sit that far from the forward sum of the same edges.
// It must stay far below the gap to the nearest rival path on the
// configuration DAGs, which is ~170 ULPs on the tightest benchmark cell.
const certEps = 4e-15

// CertifiedShortestPathCtx is ConstrainedShortestPathBoundedCtx with no
// wLimit that also returns the answer's Certificate. The certificate is
// zero, and not Unique, when the search fails.
func (g *Graph) CertifiedShortestPathCtx(ctx context.Context, src, dst int, budget float64, b *Bounds) (Path, Certificate, error) {
	var p Path
	var cert Certificate
	var err error
	telemetry.DoPhase(ctx, telemetry.PhaseCSP, func(ctx context.Context) {
		p, cert, err = g.constrainedSearch(ctx, src, dst, budget, b, math.Inf(1))
	})
	return p, cert, err
}

// constrainedSearch is the label-setting loop behind every constrained
// entry point. Labels are popped by w + WToGo[node], an A* order whose
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
//
// The loop keeps what the answer's Certificate needs beyond the arena —
// the expanded labels with an edge the budget test discarded, and the
// least priority popped while another label of exactly that priority
// was queued — and certify reads the rest off the arena once the goal
// pops. A search under a finite wLimit returns no certificate: that
// test discards labels a certificate would have to count as rivals, and
// the callers that pass one drop it.
func (g *Graph) constrainedSearch(ctx context.Context, src, dst int, budget float64, b *Bounds, wLimit float64) (Path, Certificate, error) {
	if err := ctx.Err(); err != nil {
		return Path{}, Certificate{}, err
	}
	if src == dst {
		return Path{Nodes: []int{src}}, Certificate{}, nil
	}
	wToGo, sideToGo := b.WToGo, b.SideToGo
	// The root may already be hopeless: the fastest completion busts the
	// budget, or the cheapest busts the caller's upper bound.
	if sideToGo[src] > budget || wToGo[src] > wLimit {
		return Path{}, Certificate{}, ErrInfeasible
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
	discarders := sc.discarders[:0]
	tied := math.Inf(1) // the least priority popped while tied in the queue
	h := &sc.lheap
	h.reset()
	h.push(0, wToGo[src])
	pops := 0
	var relaxed, pruned int64
	defer func() {
		sc.labels, sc.discarders = labels, discarders // hand grown buffers back to the pool
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
				return Path{}, Certificate{}, err
			}
		}
		li, lpri := h.pop()
		if h.len() > 0 && h.pri[0] == lpri {
			tied = min(tied, lpri)
		}
		l := labels[li]
		if l.side >= settled[l.node] {
			continue
		}
		settled[l.node] = l.side
		if l.node == dst32 {
			var cert Certificate
			if math.IsInf(wLimit, 1) {
				cert = g.certify(labels, discarders, li, budget, b, tied, h)
			}
			return pathFromArena(labels, li), cert, nil
		}
		busted := false
		for ei := off[l.node]; ei < off[l.node+1]; ei++ {
			v := to[ei]
			nw, ns := l.w+ew[ei], l.side+es[ei]
			if ns > budget {
				busted = true
				continue
			}
			if ns+sideToGo[v] > budget {
				busted = true
				pruned++
				continue
			}
			pri := nw + wToGo[v]
			if pri > wLimit {
				pruned++
				continue
			}
			if ns >= settled[v] {
				continue
			}
			nidx := int32(len(labels))
			labels = append(labels, csLabel{w: nw, side: ns, node: v, prev: li})
			relaxed++
			h.push(nidx, pri)
		}
		if busted {
			discarders = append(discarders, li)
		}
	}
	if err := ctx.Err(); err != nil {
		return Path{}, Certificate{}, err
	}
	return Path{}, Certificate{}, ErrInfeasible
}

// certify builds the Certificate of the goal label li from the search's
// state at the moment it popped (see Certificate for the rules): the
// arena, the expanded labels with a budget discard, the least tied pop
// and the queue. Hi replays the budget test over those labels' edges,
// forming each discarded label's W and side with the loop's own sums,
// so it sees exactly the labels the loop discarded.
func (g *Graph) certify(labels []csLabel, discarders []int32, li int32, budget float64, b *Bounds, tied float64, h *heap4) Certificate {
	thr := labels[li].w * (1 + certEps)
	var c Certificate
	var top float64 // the greatest priority a label of the path popped at
	for at := li; at >= 0; at = labels[at].prev {
		l := labels[at]
		c.Lo = max(c.Lo, l.side, l.side+b.SideToGo[l.node])
		top = max(top, l.w+b.WToGo[l.node])
	}
	c.Hi = math.Inf(1)
	for _, at := range discarders {
		l := labels[at]
		for ei := g.off[l.node]; ei < g.off[l.node+1]; ei++ {
			v := g.to[ei]
			ns := l.side + g.side[ei]
			if need := max(ns, ns+b.SideToGo[v]); need > budget && need < c.Hi && l.w+g.w[ei]+b.WToGo[v] <= thr {
				c.Hi = need
			}
		}
	}
	c.Unique = top <= thr && tied > thr && (h.len() == 0 || h.pri[0] > thr)
	return c
}
