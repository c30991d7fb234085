package graph

import (
	"context"
	"math/rand"
	"testing"
)

// optimizerShapedGraph builds a graph with the Fig. 5 DAG's proportions
// at paper scale (N = 202 objects, pruned tier set).
func optimizerShapedGraph() (*Graph, int, int) {
	rng := rand.New(rand.NewSource(1))
	const (
		L = 27  // pruned tiers (128..1792)
		N = 202 // objects
	)
	// Columns: src, i(L), kM(N), kR(N), (kR,a)(N*L), s(L), dst.
	n := 2 + L + N + N + N*L + L
	g := New(n)
	src, dst := 0, 1
	iBase := 2
	kmBase := iBase + L
	krBase := kmBase + N
	kraBase := krBase + N
	sBase := kraBase + N*L
	for i := 0; i < L; i++ {
		g.AddEdge(src, iBase+i, 0, 0)
	}
	for i := 0; i < L; i++ {
		for k := 0; k < N; k++ {
			g.AddEdge(iBase+i, kmBase+k, rng.Float64()*10, rng.Float64())
		}
	}
	for k := 0; k < N; k++ {
		for r := 0; r < N; r++ {
			g.AddEdge(kmBase+k, krBase+r, rng.Float64()*10, rng.Float64())
		}
	}
	for r := 0; r < N; r++ {
		for a := 0; a < L; a++ {
			g.AddEdge(krBase+r, kraBase+r*L+a, rng.Float64(), rng.Float64())
		}
	}
	for r := 0; r < N; r++ {
		for a := 0; a < L; a++ {
			for s := 0; s < L; s++ {
				g.AddEdge(kraBase+r*L+a, sBase+s, rng.Float64()*10, rng.Float64())
			}
		}
	}
	for s := 0; s < L; s++ {
		g.AddEdge(sBase+s, dst, 0, 0)
	}
	return g, src, dst
}

func BenchmarkDijkstraPaperScale(b *testing.B) {
	g, src, dst := optimizerShapedGraph()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.ShortestPath(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConstrainedSPPaperScale(b *testing.B) {
	g, src, dst := optimizerShapedGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ConstrainedShortestPathCtx(context.Background(), src, dst, 2.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgorithm1PaperScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, src, dst := optimizerShapedGraph() // Algorithm 1 mutates the graph
		b.StartTimer()
		if _, err := g.Algorithm1Ctx(context.Background(), src, dst, 2.5); err != nil && err != ErrInfeasible {
			b.Fatal(err)
		}
	}
}

func BenchmarkYenK20PaperScale(b *testing.B) {
	g, src, dst := optimizerShapedGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if paths, _ := g.YenKSPCtx(context.Background(), src, dst, 20, 1); len(paths) == 0 {
			b.Fatal("no paths")
		}
	}
}
