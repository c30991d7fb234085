package graph

import (
	"context"
	"errors"
	"math"
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
}

// TestUnconstrainedLabelSettingIsTheShortestPath: the bounded search at
// an infinite budget over the graph's to-go bounds — how the optimizer
// plans a request whose constraint does not bind — returns the sweep's
// shortest path bit for bit (nodes, W and Side), pops one label per node
// of it, and books no Dijkstra run.
func TestUnconstrainedLabelSettingIsTheShortestPath(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		g, src, dst := layered(2+int(seed)%5, 2+int(seed)%7, seed)
		want, err := g.ShortestPath(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.New()
		ctx := telemetry.NewContext(context.Background(), reg)
		got, err := g.ConstrainedShortestPathBoundedCtx(ctx, src, dst, math.Inf(1), g.ToGoBounds(dst), math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Nodes, want.Nodes) ||
			math.Float64bits(got.W) != math.Float64bits(want.W) || math.Float64bits(got.Side) != math.Float64bits(want.Side) {
			t.Fatalf("seed %d: label-setting %+v, shortest path %+v", seed, got, want)
		}
		if pops, runs := reg.Counter(telemetry.MCSPLabelsPopped).Value(), reg.Counter(telemetry.MSearchDijkstraRuns).Value(); pops != int64(len(want.Nodes)) || runs != 0 {
			t.Fatalf("seed %d: %d labels popped and %d Dijkstra runs for a %d-node path, want %d and 0", seed, pops, runs, len(want.Nodes), len(want.Nodes))
		}
	}
}
