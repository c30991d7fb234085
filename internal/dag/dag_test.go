package dag

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"astra/internal/graph"
	"astra/internal/mapreduce"
	"astra/internal/model"
	"astra/internal/telemetry"
	"astra/internal/workload"
)

// allPaths enumerates every Src -> Dst path of d, each with both weights
// summed along it, by a depth-first walk over d.G.EdgesFrom.
func allPaths(d *DAG) []graph.Path {
	var out []graph.Path
	var walk func(u int, nodes []int, w, side float64)
	walk = func(u int, nodes []int, w, side float64) {
		nodes = append(nodes, u)
		if u == d.Dst {
			out = append(out, graph.Path{Nodes: append([]int(nil), nodes...), W: w, Side: side})
			return
		}
		for _, e := range d.G.EdgesFrom(u) {
			walk(e.To, nodes, w+e.W, side+e.Side)
		}
	}
	walk(d.Src, nil, 0, 0)
	return out
}

func testModel() *model.Paper {
	return model.NewPaper(model.DefaultParams(workload.Job{
		Profile:    workload.WordCount,
		NumObjects: 10,
		ObjectSize: 8 << 20,
	}))
}

var testTiers = []int{128, 512, 1024, 3008}

// testClasses is the transfer class of k_M = 1..10 for testModel's ten
// objects, worked by hand: ceil(10/k_M) runs 10, 5, 4, 3, 2, 2, 2, 2, 2, 1
// — six distinct mapper counts, so J = 6.
var testClasses = []int{0, 1, 2, 3, 4, 4, 4, 4, 4, 5}

// wantNodes is the node count of the nine-column layout: source and
// destination, L mapper tiers, n objects-per-mapper values, J transfer
// classes, n objects-per-reducer values, their n*L coordinator nodes and
// n joins, and L reducer tiers.
func wantNodes(L, n, J int) int {
	return 2 + L + n + J + n + n*L + n + L
}

func TestBuildShape(t *testing.T) {
	d, err := BuildContext(context.Background(), testModel(), MinimizeTime, Options{Tiers: testTiers})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.jcOf, testClasses) || d.nJC != 6 {
		t.Fatalf("transfer classes %v (%d of them), want %v", d.jcOf, d.nJC, testClasses)
	}
	if want := wantNodes(4, 10, 6); d.G.NumNodes() != want {
		t.Fatalf("nodes = %d, want %d", d.G.NumNodes(), want)
	}
	if d.G.NumEdges() == 0 {
		t.Fatal("no edges")
	}
}

func TestShortestPathDecodesToValidConfig(t *testing.T) {
	m := testModel()
	d, err := BuildContext(context.Background(), m, MinimizeTime, Options{Tiers: testTiers})
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.G.ShortestPath(d.Src, d.Dst)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := d.Decode(p)
	if err != nil {
		t.Fatal(err)
	}
	if !m.P.Sheet.Lambda.ValidMemory(cfg.MapperMemMB) ||
		!m.P.Sheet.Lambda.ValidMemory(cfg.CoordMemMB) ||
		!m.P.Sheet.Lambda.ValidMemory(cfg.ReducerMemMB) {
		t.Fatalf("invalid memories in %v", cfg)
	}
	if cfg.ObjsPerMapper < 1 || cfg.ObjsPerMapper > 10 ||
		cfg.ObjsPerReducer < 1 || cfg.ObjsPerReducer > 10 {
		t.Fatalf("invalid parallelism in %v", cfg)
	}
}

// TestPathWeightMatchesModelComponents: any full path's weight must equal
// the sum of the model's four edge components for the decoded config —
// for every path of a small shape, and for seeded random
// feasible configurations whose greedy splits leave short tails, on
// graphs built by a worker pool that rebinds each worker's RowEval from
// row to row. Those must weigh bit for bit what the components, each
// evaluated on its own, sum to.
func TestPathWeightMatchesModelComponents(t *testing.T) {
	m := testModel()
	d, err := BuildContext(context.Background(), m, MinimizeTime, Options{Tiers: testTiers})
	if err != nil {
		t.Fatal(err)
	}
	paths := allPaths(d)
	if len(paths) < 5 {
		t.Fatalf("only %d paths", len(paths))
	}
	for _, p := range paths {
		cfg, err := d.Decode(p)
		if err != nil {
			t.Fatal(err)
		}
		e1 := m.MapperTime(cfg.MapperMemMB, cfg.ObjsPerMapper)
		e2, err := m.TransferTime(cfg.ObjsPerMapper, cfg.ObjsPerReducer)
		if err != nil {
			t.Fatal(err)
		}
		e3 := m.CoordCompute(cfg.CoordMemMB)
		e4, err := m.ReduceCompute(cfg.ReducerMemMB, cfg.ObjsPerReducer)
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(p.W - (e1 + e2 + e3 + e4)); diff > 1e-9 {
			t.Fatalf("%v: path weight %v != component sum %v", cfg, p.W, e1+e2+e3+e4)
		}
	}

	// N = 97 is prime: every k_M > 1 leaves a short last mapper.
	const n = 97
	for _, pf := range []workload.Profile{workload.Query, workload.Sort, workload.WordCount} {
		m := goldenModel(pf, n)
		for _, mode := range []Mode{MinimizeTime, MinimizeCost} {
			d, err := BuildContext(context.Background(), m, mode, Options{Tiers: testTiers, Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(n))
			tails := 0
			for tails < 100 {
				kM, kR := 1+rng.Intn(n), 1+rng.Intn(n)
				orch, err := mapreduce.OrchestrateFor(pf, n, kM, kR)
				if err != nil {
					t.Fatal(err)
				}
				if orch.MapperLoads.Tail == 0 && orch.Step(0).Tail == 0 || model.Feasible(m.P, orch) != nil {
					continue
				}
				tails++
				cfg := mapreduce.Config{
					MapperMemMB:    d.tiers[rng.Intn(d.nTiers)],
					CoordMemMB:     d.tiers[rng.Intn(d.nTiers)],
					ReducerMemMB:   d.tiers[rng.Intn(d.nTiers)],
					ObjsPerMapper:  kM,
					ObjsPerReducer: kR,
				}
				w, side := walk(t, d.G, d.pathOf(t, cfg))
				if wantW, wantSide := modelSums(t, m, mode, cfg); w != wantW || side != wantSide {
					t.Fatalf("%s %v %v: path weighs (%v, %v), the model's components sum to (%v, %v)",
						pf.Name, mode, cfg, w, side, wantW, wantSide)
				}
			}
		}
	}
}

// TestShortestPathIsGlobalOptimum: enumerate the whole (small) space and
// verify the DAG's shortest path attains the minimum of the same
// edge-decomposed objective.
func TestShortestPathIsGlobalOptimum(t *testing.T) {
	m := testModel()
	d, err := BuildContext(context.Background(), m, MinimizeTime, Options{Tiers: testTiers})
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.G.ShortestPath(d.Src, d.Dst)
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	for _, i := range testTiers {
		for kM := 1; kM <= 10; kM++ {
			for kR := 1; kR <= 10; kR++ {
				for _, a := range testTiers {
					for _, s := range testTiers {
						e1 := m.MapperTime(i, kM)
						e2, err := m.TransferTime(kM, kR)
						if err != nil {
							continue
						}
						e3 := m.CoordCompute(a)
						e4, err := m.ReduceCompute(s, kR)
						if err != nil {
							continue
						}
						if v := e1 + e2 + e3 + e4; v < best {
							best = v
						}
					}
				}
			}
		}
	}
	if math.Abs(p.W-best) > 1e-9 {
		t.Fatalf("shortest path %v != brute-force optimum %v", p.W, best)
	}
}

func TestCostModeSwapsWeights(t *testing.T) {
	m := testModel()
	dt, err := BuildContext(context.Background(), m, MinimizeTime, Options{Tiers: testTiers})
	if err != nil {
		t.Fatal(err)
	}
	dc, err := BuildContext(context.Background(), m, MinimizeCost, Options{Tiers: testTiers})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := dt.G.ShortestPath(dt.Src, dt.Dst)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := dc.G.ShortestPath(dc.Src, dc.Dst)
	if err != nil {
		t.Fatal(err)
	}
	// The cheapest path's cost cannot exceed the fastest path's cost, and
	// vice versa for time.
	if pc.W > pt.Side+1e-12 {
		t.Fatalf("cost-mode optimum %v worse than time-mode side cost %v", pc.W, pt.Side)
	}
	if pt.W > pc.Side+1e-12 {
		t.Fatalf("time-mode optimum %v worse than cost-mode side time %v", pt.W, pc.Side)
	}
	// Cost mode should choose small memory; time mode large mapper memory.
	ct, _ := dt.Decode(pt)
	cc, _ := dc.Decode(pc)
	if cc.MapperMemMB > ct.MapperMemMB {
		t.Fatalf("cost mode picked bigger mapper memory (%d) than time mode (%d)",
			cc.MapperMemMB, ct.MapperMemMB)
	}
}

func TestLambdaLimitPrunesParallelism(t *testing.T) {
	p := model.DefaultParams(workload.Job{
		Profile:    workload.WordCount,
		NumObjects: 10,
		ObjectSize: 8 << 20,
	})
	p.MaxLambdas = 4 // at most 4 mappers -> kM >= 3
	d, err := BuildContext(context.Background(), model.NewPaper(p), MinimizeTime, Options{Tiers: testTiers})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range allPaths(d) {
		cfg, err := d.Decode(path)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.ObjsPerMapper < 3 {
			t.Fatalf("config %v violates the 4-lambda limit", cfg)
		}
	}
}

func TestDecodeRejectsMalformedPaths(t *testing.T) {
	d, err := BuildContext(context.Background(), testModel(), MinimizeTime, Options{Tiers: testTiers})
	if err != nil {
		t.Fatal(err)
	}
	short := graph.Path{Nodes: []int{d.Src, d.Dst}}
	if _, err := d.Decode(short); err == nil {
		t.Fatal("short path should fail to decode")
	}
	wrongEnds := graph.Path{Nodes: []int{d.Dst, 2, 3, 4, 5, 6, d.Src}}
	if _, err := d.Decode(wrongEnds); err == nil {
		t.Fatal("reversed path should fail to decode")
	}
}

func TestModeString(t *testing.T) {
	if MinimizeTime.String() != "minimize-time" || MinimizeCost.String() != "minimize-cost" {
		t.Fatal("mode names changed")
	}
}

// TestToGoBoundsMemoizedOnTheTemplate: the template computes its bounds
// once and hands every caller the same arrays, and Algorithm 1 on the
// template leaves them, and its edges, as they were.
func TestToGoBoundsMemoizedOnTheTemplate(t *testing.T) {
	ctx := context.Background()
	d, err := BuildContext(ctx, testModel(), MinimizeTime, Options{Tiers: testTiers})
	if err != nil {
		t.Fatal(err)
	}
	b := d.ToGoBounds(ctx)
	if d.ToGoBounds(ctx) != b {
		t.Fatal("second ToGoBounds call recomputed the bounds")
	}
	if want := d.G.ToGoBounds(d.Dst); !reflect.DeepEqual(b, want) {
		t.Fatal("memoized bounds differ from graph.ToGoBounds")
	}

	// Algorithm 1 under a budget the fastest path breaks deletes edges,
	// whether or not it then finds a feasible path; the deletions are bans
	// in its own search, so the template keeps every edge and the same
	// memoized bounds, equal to a fresh pull over its arrays.
	edges := d.G.NumEdges()
	reg := telemetry.New()
	if _, err := d.G.Algorithm1Ctx(telemetry.NewContext(ctx, reg), d.Src, d.Dst, b.SideToGo[d.Src]*1.01); err != nil && !errors.Is(err, graph.ErrInfeasible) {
		t.Fatal(err)
	}
	if reg.Counter(telemetry.MAlg1EdgesRemoved).Value() == 0 {
		t.Fatal("Algorithm 1 deleted no edge; the test needs a budget that binds")
	}
	if d.G.NumEdges() != edges {
		t.Fatalf("Algorithm 1 changed the template's edge count: %d -> %d", edges, d.G.NumEdges())
	}
	if d.ToGoBounds(ctx) != b {
		t.Fatal("Algorithm 1 disturbed the template's memoized bounds")
	}
	if want := d.G.ToGoBounds(d.Dst); !reflect.DeepEqual(b, want) {
		t.Fatal("after Algorithm 1 the template's bounds differ from a fresh pull")
	}
}
