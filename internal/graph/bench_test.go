package graph

import (
	"context"
	"math/rand"
	"testing"
)

// optimizerShapedGraph builds a graph with the Fig. 5 DAG's topology as
// internal/dag assembles it, at paper scale (N = 202 objects, pruned tier
// set): nine columns, with the transfer fan leaving one node per distinct
// mapper count ceil(N/kM) and the reduce fan leaving one join per kR.
// (internal/dag imports this package, so the class numbering is restated
// here rather than read from dag's layout.)
func optimizerShapedGraph() (*Graph, int, int) {
	rng := rand.New(rand.NewSource(1))
	const (
		L = 27  // pruned tiers (128..1792)
		N = 202 // objects
	)
	var jcOf [N]int // transfer class of kM = k+1
	J := 0
	for k, prev := 0, 0; k < N; k++ {
		if j := (N + k) / (k + 1); j != prev {
			J++
			prev = j
		}
		jcOf[k] = J - 1
	}
	// Columns: src, i(L), kM(N), jc(J), kR(N), (kR,a)(N*L), join(N), s(L), dst.
	n := 2 + L + N + J + N + N*L + N + L
	g := New(n)
	src, dst := 0, n-1
	iBase := 1
	kmBase := iBase + L
	jcBase := kmBase + N
	krBase := jcBase + J
	kraBase := krBase + N
	joinBase := kraBase + N*L
	sBase := joinBase + N
	for i := 0; i < L; i++ {
		g.AddEdge(src, iBase+i, 0, 0)
	}
	for i := 0; i < L; i++ {
		for k := 0; k < N; k++ {
			g.AddEdge(iBase+i, kmBase+k, rng.Float64()*10, rng.Float64())
		}
	}
	for k := 0; k < N; k++ {
		g.AddEdge(kmBase+k, jcBase+jcOf[k], 0, 0)
	}
	for c := 0; c < J; c++ {
		for r := 0; r < N; r++ {
			g.AddEdge(jcBase+c, krBase+r, rng.Float64()*10, rng.Float64())
		}
	}
	for r := 0; r < N; r++ {
		for a := 0; a < L; a++ {
			g.AddEdge(krBase+r, kraBase+r*L+a, rng.Float64(), rng.Float64())
			g.AddEdge(kraBase+r*L+a, joinBase+r, 0, 0)
		}
	}
	for r := 0; r < N; r++ {
		for s := 0; s < L; s++ {
			g.AddEdge(joinBase+r, sBase+s, rng.Float64()*10, rng.Float64())
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
	g, src, dst := optimizerShapedGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Algorithm1Ctx(context.Background(), src, dst, 2.5); err != nil && err != ErrInfeasible {
			b.Fatal(err)
		}
	}
}
