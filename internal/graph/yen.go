package graph

import (
	"context"
	"sort"

	"astra/internal/parallel"
	"astra/internal/telemetry"
)

// YenKSPCtx enumerates up to k loopless shortest paths from src to dst in
// non-decreasing W order (Yen's algorithm). It underlies the
// "keep taking the next-shortest path until one fits the budget" exact
// solver on the configuration DAG, and the k-shortest-path reference the
// paper cites for Algorithm 1. Each round's spur-node searches
// (independent Dijkstra runs over a read-only view of the graph) are
// distributed over up to workers goroutines (workers <= 0 means all
// cores). Candidates are merged in spur order, so the returned paths are
// identical to the serial enumeration regardless of parallelism. On
// cancellation the paths found so far are returned alongside ctx.Err().
//
// Each spur search borrows a pooled scratch: banned root nodes live in
// the scratch's node flags and banned edges in its CSR-indexed bitset
// (set and unset by index, so no per-spur map or slice is built).
func (g *Graph) YenKSPCtx(ctx context.Context, src, dst, k, workers int) ([]Path, error) {
	if k <= 0 {
		return nil, ctx.Err()
	}
	var paths []Path
	var err error
	telemetry.DoPhase(ctx, telemetry.PhaseYen, func(ctx context.Context) {
		paths, err = g.yenKSPCtx(ctx, src, dst, k, workers)
	})
	return paths, err
}

func (g *Graph) yenKSPCtx(ctx context.Context, src, dst, k, workers int) ([]Path, error) {
	tel := telemetry.FromContext(ctx)
	rounds := tel.Counter(telemetry.MYenRounds)
	spurSearches := tel.Counter(telemetry.MYenSpurSearches)
	runs := tel.Counter(telemetry.MSearchDijkstraRuns)
	relaxations := tel.Counter(telemetry.MSearchEdgesRelaxed)
	first, err := g.ShortestPathCtx(ctx, src, dst)
	if err != nil {
		return nil, ctx.Err()
	}
	paths := []Path{first}
	var candidates []Path

	for len(paths) < k {
		if err := ctx.Err(); err != nil {
			return paths, err
		}
		roundSpan := tel.StartSpan("plan/solve/yen/round")
		rounds.Inc()
		prevPath := paths[len(paths)-1].Nodes
		// Each node of the previous path (except the last) spawns a spur;
		// the searches are independent and only read the graph, so they
		// fan out across the pool. Results land in per-spur slots —
		// including the relaxation counts, so the telemetry totals are
		// identical at every pool size.
		spurs := make([]Path, len(prevPath)-1)
		spurOK := make([]bool, len(prevPath)-1)
		spurRelaxed := make([]int64, len(prevPath)-1)
		err := parallel.ForEach(ctx, len(prevPath)-1, workers, func(i int) {
			spurNode := prevPath[i]
			rootNodes := prevPath[:i+1]

			sc := g.getScratch(tel)
			defer putScratch(sc)

			// Ban edges used by already-found paths sharing this root,
			// and ban root nodes (except the spur) to keep paths simple.
			for _, p := range paths {
				if len(p.Nodes) > i && equalPrefix(p.Nodes, rootNodes) {
					sc.banEdges(g, p.Nodes[i], p.Nodes[i+1])
				}
			}
			banned := sc.bannedNode
			for j := range banned {
				banned[j] = false
			}
			for _, n := range rootNodes[:len(rootNodes)-1] {
				banned[n] = true
			}

			spurRelaxed[i] = g.dijkstra(sc, spurNode, banned, sc.bannedEdge)
			spur, ok := g.assemble(sc, spurNode, dst)
			if !ok {
				return
			}
			total := append(append([]int{}, rootNodes[:len(rootNodes)-1]...), spur.Nodes...)
			if cand, ok := g.weigh(total, sc.bannedEdge); ok {
				spurs[i], spurOK[i] = cand, true
			}
		})
		spurSearches.Add(int64(len(spurs)))
		runs.Add(int64(len(spurs)))
		var roundRelaxed int64
		for _, r := range spurRelaxed {
			roundRelaxed += r
		}
		relaxations.Add(roundRelaxed)
		roundSpan.End()
		if err != nil {
			return paths, err
		}
		// Deduplicate and collect in spur order — the same order the
		// serial loop appends in.
		for i := range spurs {
			if !spurOK[i] {
				continue
			}
			if cand := spurs[i]; !containsPath(paths, cand) && !containsPath(candidates, cand) {
				candidates = append(candidates, cand)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool { return candidates[a].W < candidates[b].W })
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths, nil
}

// YenUntilCtx walks the k-shortest-path stream until a path satisfying
// the side budget appears, scanning at most maxPaths paths. It is exact
// on DAG instances whenever a feasible path exists within the scan
// horizon. See YenKSPCtx for the concurrency contract.
func (g *Graph) YenUntilCtx(ctx context.Context, src, dst int, budget float64, maxPaths, workers int) (Path, error) {
	paths, err := g.YenKSPCtx(ctx, src, dst, maxPaths, workers)
	if err != nil {
		return Path{}, err
	}
	if len(paths) == 0 {
		return Path{}, ErrNoPath
	}
	for _, p := range paths {
		if p.Side <= budget {
			return p, nil
		}
	}
	return Path{}, ErrInfeasible
}

// weigh computes a Path's weights from an explicit node sequence over
// the edges a sweep around banned relaxes, reporting false if any hop is
// missing.
func (g *Graph) weigh(nodes []int, banned bitset) (Path, bool) {
	p := Path{Nodes: nodes}
	for i := 0; i+1 < len(nodes); i++ {
		ei := g.edgeAt(nodes[i], nodes[i+1], banned)
		if ei < 0 {
			return Path{}, false
		}
		p.W += g.w[ei]
		p.Side += g.side[ei]
	}
	return p, true
}

func equalPrefix(p, prefix []int) bool {
	if len(p) < len(prefix) {
		return false
	}
	for i := range prefix {
		if p[i] != prefix[i] {
			return false
		}
	}
	return true
}

func containsPath(set []Path, p Path) bool {
	for _, o := range set {
		if len(o.Nodes) != len(p.Nodes) {
			continue
		}
		same := true
		for i := range o.Nodes {
			if o.Nodes[i] != p.Nodes[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}
