package dag

import (
	"context"
	"errors"
	"testing"

	"astra/internal/graph"
	"astra/internal/model"
	"astra/internal/workload"
)

// sameGraph reports whether two graphs are structurally identical: same
// node count and, for every node, the same live edges in the same order
// with bit-identical weights.
func sameGraph(a, b *graph.Graph) (string, bool) {
	if a.NumNodes() != b.NumNodes() {
		return "node count", false
	}
	if a.NumEdges() != b.NumEdges() {
		return "edge count", false
	}
	for u := 0; u < a.NumNodes(); u++ {
		ea, eb := a.EdgesFrom(u), b.EdgesFrom(u)
		if len(ea) != len(eb) {
			return "out-degree", false
		}
		for i := range ea {
			if ea[i] != eb[i] {
				return "edge weight/order", false
			}
		}
	}
	return "", true
}

func TestParallelBuildMatchesSerial(t *testing.T) {
	jobs := []workload.Job{
		{Profile: workload.WordCount, NumObjects: 10, ObjectSize: 8 << 20},
		{Profile: workload.Sort, NumObjects: 40, ObjectSize: 32 << 20},
	}
	for _, job := range jobs {
		m := model.NewPaper(model.DefaultParams(job))
		for _, mode := range []Mode{MinimizeTime, MinimizeCost} {
			serial, err := BuildContext(context.Background(), m, mode, Options{Tiers: testTiers, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 2, 4, 8} {
				par, err := BuildContext(context.Background(), m, mode, Options{Tiers: testTiers, Parallelism: workers})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", job.Profile.Name, workers, err)
				}
				if why, ok := sameGraph(serial.G, par.G); !ok {
					t.Fatalf("%s mode=%v workers=%d: graphs differ (%s)",
						job.Profile.Name, mode, workers, why)
				}
			}
		}
	}
}

func TestBuildContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := BuildContext(ctx, testModel(), MinimizeTime, Options{Tiers: testTiers})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestWithGraphSharesDecoder(t *testing.T) {
	d, err := BuildContext(context.Background(), testModel(), MinimizeTime, Options{Tiers: testTiers})
	if err != nil {
		t.Fatal(err)
	}
	clone := d.WithGraph(d.G.Clone())
	if clone.G == d.G {
		t.Fatal("WithGraph returned the original graph")
	}
	if clone.Src != d.Src || clone.Dst != d.Dst {
		t.Fatal("WithGraph changed terminals")
	}
	p, err := clone.G.ShortestPath(clone.Src, clone.Dst)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := clone.Decode(p)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := d.G.ShortestPath(d.Src, d.Dst)
	if err != nil {
		t.Fatal(err)
	}
	ocfg, err := d.Decode(orig)
	if err != nil {
		t.Fatal(err)
	}
	if cfg != ocfg {
		t.Fatalf("clone decodes %v, original %v", cfg, ocfg)
	}
}
