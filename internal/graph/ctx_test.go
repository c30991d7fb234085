package graph

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"astra/internal/telemetry"
)

// layered builds a random layered DAG shaped and numbered like the
// configuration DAG: the source, width nodes per layer, the destination,
// full bipartite edges between adjacent layers, with deterministic
// pseudo-random weights.
func layered(layers, width int, seed int64) (*Graph, int, int) {
	rng := rand.New(rand.NewSource(seed))
	n := layers*width + 2
	g := New(n)
	src, dst := 0, n-1
	node := func(l, i int) int { return 1 + l*width + i }
	for i := 0; i < width; i++ {
		g.AddEdge(src, node(0, i), rng.Float64()+0.1, rng.Float64()+0.1)
		g.AddEdge(node(layers-1, i), dst, rng.Float64()+0.1, rng.Float64()+0.1)
	}
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				g.AddEdge(node(l, i), node(l+1, j), rng.Float64()+0.1, rng.Float64()+0.1)
			}
		}
	}
	return g, src, dst
}

// TestCloneIsIndependent: Algorithm 1 bans edges in its own scratch, so
// running it on a Clone — or on the graph itself — leaves both handles
// with every edge and the answers of a fresh build.
func TestCloneIsIndependent(t *testing.T) {
	g, src, dst := layered(4, 5, 1)
	clone := g.Clone()
	edgesBefore := g.NumEdges()
	for _, h := range []*Graph{clone, g} {
		if _, err := h.Algorithm1Ctx(context.Background(), src, dst, 2.0); err != nil && !errors.Is(err, ErrInfeasible) {
			t.Fatal(err)
		}
	}
	if g.NumEdges() != edgesBefore || clone.NumEdges() != edgesBefore {
		t.Fatalf("Algorithm 1 changed the edge count: %d -> %d and %d", edgesBefore, g.NumEdges(), clone.NumEdges())
	}

	fresh, _, _ := layered(4, 5, 1)
	pf, errF := fresh.ShortestPath(src, dst)
	for name, h := range map[string]*Graph{"original": g, "clone": clone} {
		ph, errH := h.ShortestPath(src, dst)
		if (errH == nil) != (errF == nil) || (errH == nil && ph.W != pf.W) {
			t.Fatalf("%s diverged from a fresh build: %+v/%v vs %+v/%v", name, ph, errH, pf, errF)
		}
	}
}

func TestParallelYenMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g, src, dst := layered(5, 6, seed)
		serial, _ := g.YenKSPCtx(context.Background(), src, dst, 12, 1)
		for _, workers := range []int{2, 4, 8} {
			par, err := g.YenKSPCtx(context.Background(), src, dst, 12, workers)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if len(par) != len(serial) {
				t.Fatalf("seed %d workers %d: %d paths, want %d", seed, workers, len(par), len(serial))
			}
			for i := range serial {
				if serial[i].W != par[i].W || !eqNodes(serial[i].Nodes, par[i].Nodes) {
					t.Fatalf("seed %d workers %d: path %d = %+v, want %+v",
						seed, workers, i, par[i], serial[i])
				}
			}
		}
	}
}

func TestSearchCancellation(t *testing.T) {
	g, src, dst := layered(6, 8, 42)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := g.Algorithm1Ctx(ctx, src, dst, 2.0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Algorithm1Ctx err = %v, want context.Canceled", err)
	}
	if _, err := g.ConstrainedShortestPathCtx(ctx, src, dst, 2.0); !errors.Is(err, context.Canceled) {
		t.Fatalf("ConstrainedShortestPathCtx err = %v, want context.Canceled", err)
	}
	if _, err := g.YenKSPCtx(ctx, src, dst, 10, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("YenKSPCtx err = %v, want context.Canceled", err)
	}
	if _, err := g.YenUntilCtx(ctx, src, dst, 2.0, 50, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("YenUntilCtx err = %v, want context.Canceled", err)
	}
}

// TestShortestPathCtxIsOnTheBooks: the counted Dijkstra returns what
// ShortestPath returns, books exactly one run and its relaxations on the
// context's registry, and observes a context that is already done.
func TestShortestPathCtxIsOnTheBooks(t *testing.T) {
	g, src, dst := layered(4, 5, 3)
	want, err := g.ShortestPath(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	ctx := telemetry.NewContext(context.Background(), reg)
	got, err := g.ShortestPathCtx(ctx, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != want.W || got.Side != want.Side || !reflect.DeepEqual(got.Nodes, want.Nodes) {
		t.Fatalf("ShortestPathCtx = %+v, ShortestPath = %+v", got, want)
	}
	if runs, relaxed := reg.Counter(telemetry.MSearchDijkstraRuns).Value(), reg.Counter(telemetry.MSearchEdgesRelaxed).Value(); runs != 1 || relaxed < int64(len(got.Nodes)-1) {
		t.Fatalf("booked %d runs and %d relaxations for a %d-hop path, want 1 run", runs, relaxed, len(got.Nodes)-1)
	}

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := g.ShortestPathCtx(cctx, src, dst); err != context.Canceled {
		t.Fatalf("cancelled context: err = %v", err)
	}
	if _, err := g.ShortestPathCtx(ctx, dst, src); !errors.Is(err, ErrNoPath) {
		t.Fatalf("dst -> src: err = %v, want ErrNoPath", err)
	}
}
