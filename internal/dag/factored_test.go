package dag

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"astra/internal/graph"
	"astra/internal/mapreduce"
	"astra/internal/model"
	"astra/internal/telemetry"
	"astra/internal/workload"
)

// pathOf is the one node sequence Decode maps back to cfg.
func (d *DAG) pathOf(t *testing.T, cfg mapreduce.Config) []int {
	t.Helper()
	tier := func(mem int) int {
		for i, m := range d.tiers {
			if m == mem {
				return i
			}
		}
		t.Fatalf("%d MB is not a tier of the graph", mem)
		return -1
	}
	kM, kR := cfg.ObjsPerMapper, cfg.ObjsPerReducer
	return []int{
		d.Src,
		d.iBase + tier(cfg.MapperMemMB),
		d.kmBase + kM - 1,
		d.jcBase + d.jcOf[kM-1],
		d.krBase + kR - 1,
		d.kraBase + (kR-1)*d.nTiers + tier(cfg.CoordMemMB),
		d.joinBase + kR - 1,
		d.sBase + tier(cfg.ReducerMemMB),
		d.Dst,
	}
}

// countPaths counts the src-to-dst paths of an acyclic graph.
func countPaths(g *graph.Graph, src, dst int) int {
	memo := make([]int, g.NumNodes())
	for i := range memo {
		memo[i] = -1
	}
	var from func(u int) int
	from = func(u int) int {
		if u == dst {
			return 1
		}
		if memo[u] < 0 {
			n := 0
			for _, e := range g.EdgesFrom(u) {
				n += from(e.To)
			}
			memo[u] = n
		}
		return memo[u]
	}
	return from(src)
}

// walk sums W and Side along a node sequence that must be joined by
// exactly one edge per hop.
func walk(t *testing.T, g *graph.Graph, nodes []int) (w, side float64) {
	t.Helper()
	for i := 0; i+1 < len(nodes); i++ {
		hops := 0
		for _, e := range g.EdgesFrom(nodes[i]) {
			if e.To == nodes[i+1] {
				hops++
				w += e.W
				side += e.Side
			}
		}
		if hops != 1 {
			t.Fatalf("%d edges %d -> %d, want exactly one", hops, nodes[i], nodes[i+1])
		}
	}
	return w, side
}

// modelSums is what cfg's path must weigh: the left-to-right sum of the
// model's four (time, cost) components, each evaluated on its own by the
// per-edge methods, combined the way mode weighs an edge.
func modelSums(t *testing.T, m *model.Paper, mode Mode, cfg mapreduce.Config) (w, side float64) {
	t.Helper()
	const tieEps = 1e-7
	kM, kR := cfg.ObjsPerMapper, cfg.ObjsPerReducer
	glue, err1 := m.GlueCost(kM, kR)
	xfer, err2 := m.TransferTime(kM, kR)
	coordC, err3 := m.CoordCost(cfg.CoordMemMB, kR)
	redT, err4 := m.ReduceCompute(cfg.ReducerMemMB, kR)
	redC, err5 := m.ReduceCost(cfg.ReducerMemMB, kR)
	for _, err := range []error{err1, err2, err3, err4, err5} {
		if err != nil {
			t.Fatal(err)
		}
	}
	times := [4]float64{m.MapperTime(cfg.MapperMemMB, kM), xfer, m.CoordCompute(cfg.CoordMemMB), redT}
	costs := [4]float64{m.MapperCost(cfg.MapperMemMB, kM), glue, coordC, redC}
	for k := range times {
		if mode == MinimizeTime {
			w += times[k] + tieEps*costs[k]
			side += costs[k]
		} else {
			w += costs[k] + tieEps*times[k]
			side += times[k]
		}
	}
	return w, side
}

// TestPathsAreConfigurations: source-to-destination paths and feasible
// configurations are in bijection, and a path weighs what the model says
// its configuration does. There are as many paths as feasible
// configurations; every sampled configuration's node sequence is joined by
// exactly one edge per hop; the sequence decodes back to the
// configuration; and its W and Side are, bit for bit, the left-to-right
// sum of the model's four (time, cost) components — the two joins add
// (0, 0), which changes no float.
func TestPathsAreConfigurations(t *testing.T) {
	shapes := []struct {
		job        workload.Job
		maxLambdas int
	}{
		{workload.Job{Profile: workload.WordCount, NumObjects: 10, ObjectSize: 8 << 20}, 0},
		{workload.Job{Profile: workload.Sort, NumObjects: 23, ObjectSize: 32 << 20}, 0},
		{workload.Job{Profile: workload.Query, NumObjects: 30, ObjectSize: 16 << 20}, 7}, // kM >= 5
	}
	for _, sh := range shapes {
		params := model.DefaultParams(sh.job)
		params.MaxLambdas = sh.maxLambdas
		m := model.NewPaper(params)
		n := sh.job.NumObjects
		feasible := []int{}
		for kM := 1; kM <= n; kM++ {
			orch, err := mapreduce.OrchestrateFor(sh.job.Profile, n, kM, 2)
			if err == nil && model.Feasible(params, orch) == nil {
				feasible = append(feasible, kM)
			}
		}
		if len(feasible) == 0 || (sh.maxLambdas > 0 && len(feasible) == n) {
			t.Fatalf("%s: %d of %d kM values feasible; the shape does not test what it should", sh.job.Profile.Name, len(feasible), n)
		}
		for _, mode := range []Mode{MinimizeTime, MinimizeCost} {
			d, err := BuildContext(context.Background(), m, mode, Options{Tiers: testTiers})
			if err != nil {
				t.Fatal(err)
			}
			L := d.nTiers
			if got, want := countPaths(d.G, d.Src, d.Dst), L*len(feasible)*n*L*L; got != want {
				t.Fatalf("%s %v: %d paths, want one per feasible configuration (%d)", sh.job.Profile.Name, mode, got, want)
			}
			rng := rand.New(rand.NewSource(int64(n)))
			for trial := 0; trial < 200; trial++ {
				cfg := mapreduce.Config{
					MapperMemMB:    d.tiers[rng.Intn(L)],
					CoordMemMB:     d.tiers[rng.Intn(L)],
					ReducerMemMB:   d.tiers[rng.Intn(L)],
					ObjsPerMapper:  feasible[rng.Intn(len(feasible))],
					ObjsPerReducer: 1 + rng.Intn(n),
				}
				nodes := d.pathOf(t, cfg)
				w, side := walk(t, d.G, nodes)
				if got, err := d.Decode(graph.Path{Nodes: nodes}); err != nil || got != cfg {
					t.Fatalf("path of %v decodes to %v, %v", cfg, got, err)
				}
				wantW, wantSide := modelSums(t, m, mode, cfg)
				if w != wantW || side != wantSide {
					t.Fatalf("%s %v %v: path weighs (%v, %v), the model's components sum to (%v, %v)",
						sh.job.Profile.Name, mode, cfg, w, side, wantW, wantSide)
				}
			}
		}
	}
}

// TestDecodeRejectsCrossedJoins: a nine-node walk whose transfer class is
// another mapper count's, or whose join is another k_R's, names no
// configuration (no such path exists in the graph; Decode must not
// invent one for a caller that hands it one).
func TestDecodeRejectsCrossedJoins(t *testing.T) {
	d, err := BuildContext(context.Background(), testModel(), MinimizeTime, Options{Tiers: testTiers})
	if err != nil {
		t.Fatal(err)
	}
	cfg := mapreduce.Config{MapperMemMB: 512, CoordMemMB: 128, ReducerMemMB: 1024, ObjsPerMapper: 3, ObjsPerReducer: 4}
	good := d.pathOf(t, cfg)
	if got, err := d.Decode(graph.Path{Nodes: good}); err != nil || got != cfg {
		t.Fatalf("Decode(%v) = %v, %v", good, got, err)
	}
	if d.nJC < 2 || d.jcOf[0] == d.jcOf[cfg.ObjsPerMapper-1] {
		t.Fatal("the test needs kM = 1 and kM = 3 in different transfer classes")
	}
	for name, mutate := range map[string]func(p []int){
		"transfer class of kM = 1":  func(p []int) { p[3] = d.jcBase + d.jcOf[0] },
		"join of another kR":        func(p []int) { p[6] = d.joinBase + cfg.ObjsPerReducer },
		"coordinator of another kR": func(p []int) { p[5] += d.nTiers },
		"class node out of range":   func(p []int) { p[3] = d.jcBase + d.nJC },
	} {
		bad := append([]int(nil), good...)
		mutate(bad)
		if got, err := d.Decode(graph.Path{Nodes: bad}); err == nil {
			t.Errorf("%s: Decode(%v) = %v, want an error", name, bad, got)
		}
	}
}

// TestReserveCensusIsExact: the edge count assembly reserves is the edge
// count it adds, so the edge log is allocated once and never regrown —
// on full fans, under a lambda limit that leaves some k_M (and whole
// transfer classes) without edges, and under fan-in caps.
func TestReserveCensusIsExact(t *testing.T) {
	limited := model.DefaultParams(workload.Job{Profile: workload.Query, NumObjects: 40, ObjectSize: 16 << 20})
	limited.MaxLambdas = 6
	cases := []struct {
		params model.Params
		opts   Options
	}{
		{testModel().P, Options{Tiers: testTiers}},
		{goldenModel(workload.Sort, 97).P, Options{}},
		{limited, Options{}},
		{goldenModel(workload.WordCount, 64).P, Options{MaxKM: 9, MaxKR: 5}},
	}
	for i, c := range cases {
		m := model.NewPaper(c.params)
		byHand := newDAG(m, MinimizeCost, c.opts)
		sc := getBuildScratch(&byHand.layout, telemetry.FromContext(context.Background()))
		if err := byHand.evaluate(context.Background(), m, sc, 1); err != nil {
			t.Fatal(err)
		}
		reserved := byHand.census(sc)
		g := byHand.assemble(sc)
		putBuildScratch(sc)
		if g.NumEdges() != reserved {
			t.Errorf("case %d: reserved %d edges, assembled %d", i, reserved, g.NumEdges())
		}
		d, err := BuildContext(context.Background(), m, MinimizeCost, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if why, ok := sameGraph(g, d.G); !ok {
			t.Errorf("case %d: the steps run by hand built another graph than BuildContext (%s)", i, why)
		}
	}
}

// TestFactoredGraphStaysSmall bounds what a cold build costs, in numbers
// that repeat exactly. The seven-column graph with the L^2 fan out of
// every (k_R, a) and the N^2 transfer fan had 204,984 edges at query
// N=207 and 125,038 at sort N=136, and a sort N=136 build made ~57k
// allocations. With the two joins, but with every orchestration still
// holding its loads as slices and the edge log copied into CSR by
// freeze, a build made 10,929 (sort N=136) and 23,172 (query N=207)
// allocations, and allocated 4-5x the bytes of the graph it returned.
// Now the splits are closed forms, rows are bound into one RowEval per
// worker, and the source-ordered log is the CSR: a build allocates little
// beyond its own graph's arrays.
func TestFactoredGraphStaysSmall(t *testing.T) {
	ctx := context.Background()
	opts := Options{Parallelism: 1}
	for _, c := range []struct {
		pf       workload.Profile
		n        int
		maxEdges int
	}{
		{workload.Query, 207, 30000},
		{workload.Sort, 136, 19000},
	} {
		m := goldenModel(c.pf, c.n)
		d, err := BuildContext(ctx, m, MinimizeTime, opts)
		if err != nil {
			t.Fatal(err)
		}
		nodes, edges := d.G.NumNodes(), d.G.NumEdges()
		if edges > c.maxEdges {
			t.Errorf("%s N=%d: %d edges, want at most %d", c.pf.Name, c.n, edges, c.maxEdges)
		}
		build := func() {
			if _, err := BuildContext(ctx, m, MinimizeTime, opts); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(5, build); allocs >= 1000 {
			t.Errorf("%s N=%d: %.0f allocations per build, want under 1,000", c.pf.Name, c.n, allocs)
		}
		if raceEnabled {
			continue
		}
		// The frozen graph's own arrays: off, to, w and side.
		graphBytes := 4*(nodes+1) + (4+8+8)*edges
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			build()
		}
		runtime.ReadMemStats(&after)
		if perBuild := float64(after.TotalAlloc-before.TotalAlloc) / runs; perBuild > 1.3*float64(graphBytes) {
			t.Errorf("%s N=%d: %.0f bytes allocated per build, want at most 1.3x the graph's %d", c.pf.Name, c.n, perBuild, graphBytes)
		}
	}
}
