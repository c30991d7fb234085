package graph

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"astra/internal/telemetry"
)

// minToGoRef computes the minimum accumulated pick(e) of any u→dst path
// by value iteration over the reference adjacency — an independent check
// on ToGoBounds' backward pull that, unlike ShortestPath's assemble,
// handles parallel edges exactly.
func minToGoRef(r *refGraph, dst int, pick func(refEdge) float64) []float64 {
	dist := make([]float64, r.n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[dst] = 0
	for round := 0; round < r.n; round++ {
		changed := false
		for u := 0; u < r.n; u++ {
			for _, e := range r.adj[u] {
				if e.removed {
					continue
				}
				if nd := pick(e) + dist[e.to]; nd < dist[u] {
					dist[u] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestToGoBoundsMatchReference(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, ref, _, dst := randomPair(rng, 2+rng.Intn(3), 2+rng.Intn(3))
		b := g.ToGoBounds(dst)
		wantSide := minToGoRef(ref, dst, func(e refEdge) float64 { return e.side })
		wantW := minToGoRef(ref, dst, func(e refEdge) float64 { return e.w })
		check := func(name string, got, want []float64) {
			for v := 0; v < g.NumNodes(); v++ {
				if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
					t.Fatalf("seed %d: %s[%d] = %v, want %v", seed, name, v, got[v], want[v])
				}
			}
		}
		check("SideToGo", b.SideToGo, wantSide)
		check("WToGo", b.WToGo, wantW)
	}
}

// TestBoundedConstrainedMatchesReference: with admissible bounds and any
// valid upper limit, the label-setting search returns exactly the path
// the independent reference solver returns (Pareto lists, no bounds),
// for feasible and infeasible budgets alike, through both entry points.
func TestBoundedConstrainedMatchesReference(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		layers := 2 + rng.Intn(3)
		g, ref, src, dst := randomPair(rng, layers, 2+rng.Intn(3))
		b := g.ToGoBounds(dst)
		for trial := 0; trial < 4; trial++ {
			budget := rng.Float64() * float64(layers+1) * 10
			want, wantOK := ref.constrained(src, dst, budget)

			got, gerr := g.ConstrainedShortestPathCtx(ctx, src, dst, budget)
			samePath(t, "unbounded entry", got, gerr == nil, want, wantOK)
			got, gerr = g.ConstrainedShortestPathBoundedCtx(ctx, src, dst, budget, b, math.Inf(1))
			samePath(t, "bounded(+Inf)", got, gerr == nil, want, wantOK)

			if wantOK {
				// The optimum's own W is the tightest valid upper limit —
				// with the relative slack callers must add, because the
				// reverse-summed WToGo can sit a few ULPs above the
				// forward suffix sum of the same edges.
				limit := want.W * (1 + 1e-9)
				got, gerr = g.ConstrainedShortestPathBoundedCtx(ctx, src, dst, budget, b, limit)
				samePath(t, "bounded(optW)", got, gerr == nil, want, wantOK)
			}
		}
	}
}

// TestBoundedConstrainedPrunes: the bounds must actually cut label work,
// and the cuts must surface on the context's telemetry registry.
func TestBoundedConstrainedPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, ref, src, dst := randomPair(rng, 4, 4)
	b := g.ToGoBounds(dst)
	budget := b.SideToGo[src] * 1.05 // tight: most of the space is hopeless

	reg := telemetry.New()
	ctx := telemetry.NewContext(context.Background(), reg)
	want, wantOK := ref.constrained(src, dst, budget)
	got, gerr := g.ConstrainedShortestPathBoundedCtx(ctx, src, dst, budget, b, math.Inf(1))
	samePath(t, "tight budget", got, gerr == nil, want, wantOK)
	if !wantOK {
		t.Fatalf("budget %v should be feasible (min side %v)", budget, b.SideToGo[src])
	}
	if n := reg.Counter(telemetry.MCSPBoundPrunes).Value(); n == 0 {
		t.Fatal("bounded search pruned no labels under a near-minimal budget")
	}
}

// TestBoundedConstrainedInfeasibleRoot: a budget below the minimal side
// must be rejected at the root without expanding any labels.
func TestBoundedConstrainedInfeasibleRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g, _, src, dst := randomPair(rng, 3, 3)
	b := g.ToGoBounds(dst)
	if _, err := g.ConstrainedShortestPathBoundedCtx(context.Background(), src, dst, b.SideToGo[src]*0.5, b, math.Inf(1)); err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestExactNeverWorseThanAlgorithm1 is the property the default planner
// stands on: bounded label-setting is feasible whenever the paper's
// Algorithm 1 is and never returns a worse objective — and on some
// budgets a strictly better one, or a path where the heuristic
// disconnects the graph.
func TestExactNeverWorseThanAlgorithm1(t *testing.T) {
	ctx := context.Background()
	better, rescued := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		layers := 2 + rng.Intn(4)
		g, _, src, dst := randomPair(rng, layers, 2+rng.Intn(4))
		b := g.ToGoBounds(dst)
		free, err := g.ShortestPath(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 6; trial++ {
			budget := b.SideToGo[src] + (free.Side-b.SideToGo[src])*rng.Float64()*1.1
			exact, eerr := g.ConstrainedShortestPathBoundedCtx(ctx, src, dst, budget, b, math.Inf(1))
			alg1, aerr := g.Algorithm1Ctx(ctx, src, dst, budget)
			switch {
			case aerr == nil && eerr != nil:
				t.Fatalf("seed %d budget %v: Algorithm 1 found %+v, the exact search nothing (%v)", seed, budget, alg1, eerr)
			case aerr == nil && exact.W > alg1.W:
				t.Fatalf("seed %d budget %v: exact W %v worse than Algorithm 1's %v", seed, budget, exact.W, alg1.W)
			case aerr == nil && exact.W < alg1.W:
				better++
			case aerr != nil && eerr == nil:
				rescued++
			}
			if eerr == nil && exact.Side > budget {
				t.Fatalf("seed %d budget %v: exact path side %v over budget", seed, budget, exact.Side)
			}
		}
	}
	t.Logf("exact strictly better on %d searches, feasible where Algorithm 1 was not on %d", better, rescued)
	if better+rescued == 0 {
		t.Fatal("no search separated the two solvers; the instances are too easy to test anything")
	}
}
