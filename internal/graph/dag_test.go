package graph_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"astra/internal/dag"
	"astra/internal/graph"
	"astra/internal/model"
	"astra/internal/telemetry"
	"astra/internal/workload"
)

func configurationDAG(t testing.TB, pf workload.Profile, n int, mode dag.Mode) *dag.DAG {
	t.Helper()
	m := model.NewPaper(model.DefaultParams(workload.Job{Profile: pf, NumObjects: n, ObjectSize: 32 << 20}))
	d, err := dag.BuildContext(context.Background(), m, mode, dag.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.G.Freeze()
	return d
}

// TestSweepMatchesHeapDijkstraOnConfigurationDAGs: on the configuration
// DAGs the planner searches — with their zero-weight join columns and the
// ties those could produce — the topological sweep returns the path the
// heap-ordered reference Dijkstra returns, node for node and bit for bit.
// The two compute the same minimum over the same left-to-right sums, so
// they can only differ in prev on an exact tie between two predecessors;
// this pins that no such tie reaches an optimum. The label-setting search
// at an infinite budget over the memoized to-go bounds, which is how the
// planner answers an unconstrained request, returns the same path too.
func TestSweepMatchesHeapDijkstraOnConfigurationDAGs(t *testing.T) {
	ctx := context.Background()
	for _, pf := range []workload.Profile{workload.Sort, workload.Query, workload.WordCount, workload.Grep} {
		for _, n := range []int{16, 64, 136, 207} {
			for _, mode := range []dag.Mode{dag.MinimizeTime, dag.MinimizeCost} {
				d := configurationDAG(t, pf, n, mode)
				want, ok := graph.RefShortestPath(d.G, d.Src, d.Dst)
				if !ok {
					t.Fatalf("%s %d %v: the reference found no path", pf.Name, n, mode)
				}
				sweep, err := d.G.ShortestPath(d.Src, d.Dst)
				if err != nil {
					t.Fatalf("%s %d %v: %v", pf.Name, n, mode, err)
				}
				labels, err := d.G.ConstrainedShortestPathBoundedCtx(ctx, d.Src, d.Dst, math.Inf(1), d.ToGoBounds(ctx), math.Inf(1))
				if err != nil {
					t.Fatalf("%s %d %v: %v", pf.Name, n, mode, err)
				}
				for name, got := range map[string]graph.Path{"sweep": sweep, "label-setting": labels} {
					if !reflect.DeepEqual(got.Nodes, want.Nodes) ||
						math.Float64bits(got.W) != math.Float64bits(want.W) ||
						math.Float64bits(got.Side) != math.Float64bits(want.Side) {
						t.Fatalf("%s %d %v: %s %v W=%x Side=%x, heap reference %v W=%x Side=%x", pf.Name, n, mode, name,
							got.Nodes, math.Float64bits(got.W), math.Float64bits(got.Side),
							want.Nodes, math.Float64bits(want.W), math.Float64bits(want.Side))
					}
				}
			}
		}
	}
}

// TestShortestPathAllocatesLittle: a search on a frozen paper-scale
// template allocates its returned path and little else — the sweep's
// buffers come from the scratch pool. The bound is not checked under the
// race detector, whose sync.Pool drops scratches at random.
func TestShortestPathAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocations per search measure the pool under -race")
	}
	d := configurationDAG(t, workload.Query, 207, dag.MinimizeTime)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := d.G.ShortestPath(d.Src, d.Dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("ShortestPath allocated %v times per search, want at most 4", allocs)
	}
}

// goldenLimit is the binding side limit plans.golden solves each shape
// under: halfway between the unconstrained optimum's side and the least
// side any path achieves.
func goldenLimit(t testing.TB, d *dag.DAG) float64 {
	t.Helper()
	best, err := d.G.ShortestPath(d.Src, d.Dst)
	if err != nil {
		t.Fatal(err)
	}
	return (best.Side + d.ToGoBounds(context.Background()).SideToGo[d.Src]) / 2
}

// TestLabelArenaStaysSmall: the unbounded entry point runs on the graph's
// own to-go bounds, so even a budget that admits every path keeps the
// label arena to a few hundred labels per search. Without bounds a loose
// budget on sort N=136 in cost mode took hundreds of thousands of labels
// with per-node Pareto lists, and millions with one settled side per
// node.
func TestLabelArenaStaysSmall(t *testing.T) {
	const maxLabels = 50_000
	shapes := []struct {
		pf workload.Profile
		n  int
	}{{workload.Sort, 136}, {workload.Query, 207}, {workload.WordCount, 97}}
	for _, sh := range shapes {
		for _, mode := range []dag.Mode{dag.MinimizeTime, dag.MinimizeCost} {
			d := configurationDAG(t, sh.pf, sh.n, mode)
			for _, budget := range []float64{1e9, goldenLimit(t, d)} {
				reg := telemetry.New()
				ctx := telemetry.NewContext(context.Background(), reg)
				if _, err := d.G.ConstrainedShortestPathCtx(ctx, d.Src, d.Dst, budget); err != nil {
					t.Fatalf("%s %d %v budget %v: %v", sh.pf.Name, sh.n, mode, budget, err)
				}
				labels := reg.Counter(telemetry.MCSPLabelsAllocated).Value()
				t.Logf("%s %d %v budget %v: %d labels allocated", sh.pf.Name, sh.n, mode, budget, labels)
				if labels > maxLabels {
					t.Errorf("%s %d %v budget %v: %d labels allocated, want at most %d", sh.pf.Name, sh.n, mode, budget, labels, maxLabels)
				}
			}
		}
	}
}

// BenchmarkConstrainedSPQuery207 is one binding plan's label-setting
// search on a frozen paper-scale template, at plans.golden's side limit,
// with the template's bounds already memoized: the certified search a
// plan runs when no interval its template keeps holds the budget (the
// memo's miss path). labels/op is what it books to
// astra_csp_labels_allocated_total.
func BenchmarkConstrainedSPQuery207(b *testing.B) {
	d := configurationDAG(b, workload.Query, 207, dag.MinimizeTime)
	limit := goldenLimit(b, d)
	reg := telemetry.New()
	ctx := telemetry.NewContext(context.Background(), reg)
	bounds := d.ToGoBounds(ctx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.G.CertifiedShortestPathCtx(ctx, d.Src, d.Dst, limit, bounds); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(reg.Counter(telemetry.MCSPLabelsAllocated).Value())/float64(b.N), "labels/op")
}

// BenchmarkUnconstrainedSPQuery207 is the one search a template-hit plan
// whose constraint does not bind makes: label-setting at an infinite
// budget on a frozen paper-scale template, with the template's bounds
// already memoized. relaxed/op and labels/op are what it books to
// astra_search_edges_relaxed_total and astra_csp_labels_popped_total.
func BenchmarkUnconstrainedSPQuery207(b *testing.B) {
	d := configurationDAG(b, workload.Query, 207, dag.MinimizeTime)
	reg := telemetry.New()
	ctx := telemetry.NewContext(context.Background(), reg)
	bounds := d.ToGoBounds(ctx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.G.ConstrainedShortestPathBoundedCtx(ctx, d.Src, d.Dst, math.Inf(1), bounds, math.Inf(1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(reg.Counter(telemetry.MSearchEdgesRelaxed).Value())/float64(b.N), "relaxed/op")
	b.ReportMetric(float64(reg.Counter(telemetry.MCSPLabelsPopped).Value())/float64(b.N), "labels/op")
}

// BenchmarkToGoBoundsQuery207 is what a template's first binding plan or
// frontier sweep pays once.
func BenchmarkToGoBoundsQuery207(b *testing.B) {
	d := configurationDAG(b, workload.Query, 207, dag.MinimizeTime)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.G.ToGoBounds(d.Dst)
	}
}
