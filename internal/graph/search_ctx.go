package graph

import (
	"context"
	"math"

	"astra/internal/telemetry"
)

// ctxCheckEvery is how many label-queue pops the constrained search
// processes between context checks: frequent enough that cancellation is
// observed within microseconds, rare enough to stay off the profile.
const ctxCheckEvery = 1024

// Clone returns a second handle on g's frozen arrays. A frozen graph
// never changes and every search keeps its state in a pooled scratch, so
// the handle searches exactly as g does and costs one small struct.
func (g *Graph) Clone() *Graph {
	g.freeze()
	c := &Graph{n: g.n, m: g.m, off: g.off, to: g.to, w: g.w, side: g.side}
	c.frozen.Store(true)
	return c
}

// Algorithm1Ctx is the paper's constrained-path heuristic, as written in
// Fig. "Algorithm 1": run Dijkstra on the objective weights, walk the
// resulting path accumulating the side weight, and when the accumulated
// side reaches the budget, delete the edge where the violation occurred
// and re-run on the reduced graph. It terminates when a path satisfies
// the budget or the graph disconnects.
//
// An edge whose side weight is zero is never the one deleted: the
// accumulated side does not move across it, so it cannot be where the
// budget is first exceeded. On the configuration DAG (internal/dag) that
// keeps the two zero-weight join columns intact through every round, and
// makes one deletion go further than in a graph without them: the fan
// edge leaving a join carries its weight for every path through the
// join, so deleting join(k_R) -> s bans (k_R, s) under every coordinator
// tier at once, and deleting jc(j) -> k_R bans that transfer for every
// k_M with j mappers.
//
// Algorithm 1 is a heuristic: it can return a suboptimal path or miss a
// feasible one (see the solver ablation); ConstrainedShortestPathCtx is
// the exact reference.
//
// The context is checked before every Dijkstra round (the heuristic can
// run one round per edge in the worst case), and ctx.Err() is returned if
// it fires.
//
// One pooled scratch carries the dist/prev buffers and the bans across
// every round, so the per-round cost is the search itself, not
// allocation. When the context carries a telemetry registry, each
// edge-removal round is recorded as a span and the round/removal/
// relaxation counts are accumulated; with no registry attached the loop
// is identical to the uninstrumented original.
func (g *Graph) Algorithm1Ctx(ctx context.Context, src, dst int, budget float64) (Path, error) {
	var p Path
	var err error
	telemetry.DoPhase(ctx, telemetry.PhaseAlgorithm1, func(ctx context.Context) {
		p, err = g.algorithm1Ctx(ctx, src, dst, budget)
	})
	return p, err
}

func (g *Graph) algorithm1Ctx(ctx context.Context, src, dst int, budget float64) (Path, error) {
	tel := telemetry.FromContext(ctx)
	rounds := tel.Counter(telemetry.MAlg1Rounds)
	removals := tel.Counter(telemetry.MAlg1EdgesRemoved)
	runs := tel.Counter(telemetry.MSearchDijkstraRuns)
	relaxations := tel.Counter(telemetry.MSearchEdgesRelaxed)
	sc := g.getScratch(tel)
	defer putScratch(sc)
	maxIter := g.m + 1
	for iter := 0; iter < maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return Path{}, err
		}
		sp := tel.StartSpan("plan/solve/algorithm1/round")
		relaxed := g.dijkstra(sc, src, sc.bannedEdge)
		rounds.Inc()
		runs.Inc()
		relaxations.Add(relaxed)
		p, ok := g.assemble(sc, src, dst)
		if !ok {
			sp.End()
			return Path{}, ErrInfeasible
		}
		side := 0.0
		violated := false
		for i := 0; i+1 < len(p.Nodes); i++ {
			ei := g.edgeAt(p.Nodes[i], p.Nodes[i+1], sc.bannedEdge)
			side += g.side[ei]
			if side > budget {
				sc.ban(ei)
				removals.Inc()
				violated = true
				break
			}
		}
		sp.End()
		if !violated {
			return p, nil
		}
	}
	return Path{}, ErrInfeasible
}

// ConstrainedShortestPathCtx solves the weight-constrained shortest path
// problem exactly: the minimum-W path from src to dst whose accumulated
// Side does not exceed budget. It computes the graph's to-go bounds
// toward dst and runs the label-setting search of
// ConstrainedShortestPathBoundedCtx with no upper limit on W: labels pop
// in w + WToGo order, and a partial path whose Side plus SideToGo
// already exceeds budget is discarded. Callers that search one graph
// repeatedly should memoize the bounds and call that entry point. The graph is not mutated, so concurrent
// searches may share one graph. The label-setting loop checks the
// context every ctxCheckEvery pops and returns ctx.Err() when it fires.
func (g *Graph) ConstrainedShortestPathCtx(ctx context.Context, src, dst int, budget float64) (Path, error) {
	return g.ConstrainedShortestPathBoundedCtx(ctx, src, dst, budget, g.ToGoBounds(dst), math.Inf(1))
}
