// Package dag constructs the configuration DAG of the paper's Fig. 5: a
// layered graph whose source-to-destination paths enumerate complete
// resource configurations, with edge weights carrying the phase times (or
// phase costs) of the model so the optimal configuration is a shortest
// path.
//
// Column layout (left to right), nine columns: source, mapper memory tier
// (x_i), mapper parallelism (objects per mapper k_M), transfer class
// jc(j), objects per reducer (k_R), coordinator memory tier keyed
// (k_R, a), join(k_R), reducer memory tier (s), destination. A path is
// a configuration and a configuration is exactly one path.
//
// The paper's drawing is not well-defined as drawn: an edge weight may
// only read the two nodes it joins, and the reduce-phase terms need k_R
// two columns after the path chose it. The fix is state augmentation, and
// the rule for how much is: a node remembers exactly what the weights
// downstream of it read — no less, or the weight is undefined; no more,
// or the same weight is written once per value of something it ignores.
// Two zero-weight columns follow from that rule:
//
//   - jc(j). The transfer/glue pair reads the reducing steps, and those
//     depend on k_M only through the mapper count j = ceil(N/k_M), which
//     takes ~2*sqrt(N) distinct values. Each feasible k_M has one free
//     edge to its class, and the class carries the transfer fan to every
//     k_R: J*N evaluated pairs and edges where a k_M -> k_R fan has N^2.
//   - join(k_R). The coordinator weight reads (k_R, a), so that column
//     is keyed by both; the reduce weight reads (k_R, s) and not a, so
//     every (k_R, a) has one free edge to k_R's join and the join carries
//     the reduce fan: 3L edges per k_R where a (k_R, a) -> s fan has
//     L + L^2.
//
// A free edge adds (0, 0): x + 0.0 == x in floating point, so a path's W
// and Side are bit for bit the left-to-right sum of its four model
// components, with or without the joins.
//
// Every edge carries both the objective weight and the other metric as a
// side weight, so the constrained searches (Algorithm 1, exact
// label-setting) can enforce the budget or deadline along the path.
//
// Edge-weight evaluation — thousands of analytic model calls over L
// memory tiers and N fan-in candidates — is sharded across a bounded
// worker pool (Options.Parallelism). Each worker rebinds one model.RowEval
// from row to row, and every orchestration a row reads is a closed form
// (mapreduce.Split), so evaluating a row allocates nothing. The weights
// are computed into per-index slots and the graph is assembled serially
// in a fixed order, so the built DAG is bit-for-bit identical at every
// parallelism degree. That order is source order: node ids ascend column
// by column, from the source (node 0) to the destination (the last node),
// and each node's edges are added in one run, so the graph's edge log
// already is its CSR and freezing it copies nothing. Ascending ids are
// also a topological order, which is what lets the graph solve the DAG
// with one sweep instead of a priority queue.
//
// A built DAG is a template every plan and frontier sweep on its shape
// shares, and it memoizes what those searches learn about its frozen
// graph: the to-go bounds toward the destination (ToGoBounds), and every
// constrained optimum a search through ConstrainedPath certified as the
// unique answer on a budget interval. The constrained optimum is a step
// function of the budget, so once a shape's hot budgets have been
// searched, a repeat plan answers them without a search.
package dag

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"astra/internal/graph"
	"astra/internal/mapreduce"
	"astra/internal/model"
	"astra/internal/parallel"
	"astra/internal/telemetry"
)

// Mode selects which metric is the shortest-path objective.
type Mode int

const (
	// MinimizeTime puts phase times on the objective and monetary cost on
	// the side weight (the Eq. 16 problem).
	MinimizeTime Mode = iota
	// MinimizeCost puts monetary cost on the objective and time on the
	// side weight (the Eq. 20 problem).
	MinimizeCost
)

// String names the mode.
func (m Mode) String() string {
	if m == MinimizeCost {
		return "minimize-cost"
	}
	return "minimize-time"
}

// Options tunes DAG construction.
type Options struct {
	// Tiers overrides the memory tier candidates (default: every tier on
	// the price sheet, the paper's L = 46).
	Tiers []int
	// MaxKM caps objects-per-mapper candidates (default: N).
	MaxKM int
	// MaxKR caps objects-per-reducer candidates (default: N).
	MaxKR int
	// Parallelism bounds the worker pool used for edge-weight evaluation:
	// 0 means every available core, 1 forces the serial path. The built
	// graph is identical at every setting.
	Parallelism int
}

// Fingerprint returns a stable hash of everything in the options that
// shapes the built graph: the tier list and the kM/kR caps. Parallelism is deliberately excluded — the
// built DAG is bit-identical at every pool size — so a template cached
// under one parallelism degree serves callers at any other.
func (o Options) Fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	u64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	u64(uint64(len(o.Tiers)))
	for _, t := range o.Tiers {
		u64(uint64(int64(t)))
	}
	u64(uint64(int64(o.MaxKM)))
	u64(uint64(int64(o.MaxKR)))
	return h.Sum64()
}

// DAG is a built configuration graph.
type DAG struct {
	G        *graph.Graph
	Src, Dst int
	Mode     Mode

	layout

	// The to-go bounds of G toward Dst, computed by the first ToGoBounds
	// call and shared by every later one (see ToGoBounds).
	boundsOnce sync.Once
	bounds     *graph.Bounds

	// The constrained optima searches on G have certified, each with the
	// budget interval it holds on (see ConstrainedPath).
	optima optima
}

// layout is what assembly and Decode share: the tier list, the fan-in
// caps, the transfer class of every k_M and the node id base of each
// column.
type layout struct {
	tiers  []int
	maxKM  int
	maxKR  int
	nTiers int

	// jcOf[kM-1] is the transfer class of k_M: the rank of its mapper
	// count j = ceil(N/k_M) among the nJC distinct ones k_M = 1..maxKM
	// produce (j falls as k_M grows, so a class is a run of k_M values).
	jcOf []int
	nJC  int

	iBase, kmBase, jcBase, krBase, kraBase, joinBase, sBase int
}

// Tiers is the memory tier list a DAG built for p with opts searches:
// opts.Tiers, or the price sheet's when none are given, less the tiers
// strictly above the speed floor, plus the floor itself when the list
// would stop short of it. Tiers above the floor are dominated: the speed
// model gives them no extra compute speed while the GB-second price keeps
// rising, so no optimum — for either objective — ever uses one.
func Tiers(p model.Params, opts Options) []int {
	tiers := opts.Tiers
	if len(tiers) == 0 {
		tiers = p.Sheet.Lambda.MemoryTiers()
	}
	floor := p.Speed.FloorMemMB
	if floor <= 0 {
		return tiers
	}
	kept := tiers[:0:0]
	for _, t := range tiers {
		if t <= floor {
			kept = append(kept, t)
		}
	}
	if len(kept) > 0 && kept[len(kept)-1] < floor && p.Sheet.Lambda.ValidMemory(floor) {
		kept = append(kept, floor)
	}
	if len(kept) == 0 {
		return tiers
	}
	return kept
}

// newLayout resolves the options against the model: the tier list after
// dominated-tier pruning, the fan-in caps, the transfer classes and the
// node numbering.
func newLayout(m *model.Paper, opts Options) layout {
	tiers := Tiers(m.P, opts)
	n := m.P.Job.NumObjects
	maxKM := opts.MaxKM
	if maxKM <= 0 || maxKM > n {
		maxKM = n
	}
	maxKR := opts.MaxKR
	if maxKR <= 0 || maxKR > n {
		maxKR = n
	}
	L := len(tiers)
	lay := layout{tiers: tiers, maxKM: maxKM, maxKR: maxKR, nTiers: L, jcOf: make([]int, maxKM)}
	for kM, prev := 1, 0; kM <= maxKM; kM++ {
		if j := (n + kM - 1) / kM; j != prev {
			lay.nJC++
			prev = j
		}
		lay.jcOf[kM-1] = lay.nJC - 1
	}
	// Node ids, column by column: [src, i x L, kM x maxKM, jc x nJC,
	// kR x maxKR, (kR,a) x maxKR*L, join x maxKR, s x L, dst]. Every edge
	// runs from one column to the next, so the ids are a topological
	// order, which the graph requires.
	lay.iBase = 1
	lay.kmBase = lay.iBase + L
	lay.jcBase = lay.kmBase + maxKM
	lay.krBase = lay.jcBase + lay.nJC
	lay.kraBase = lay.krBase + maxKR
	lay.joinBase = lay.kraBase + maxKR*L
	lay.sBase = lay.joinBase + maxKR
	return lay
}

// newDAG is a DAG before its graph is built: the layout, and the source
// and destination, which are the first and the last node id of every
// layout.
func newDAG(m *model.Paper, mode Mode, opts Options) *DAG {
	lay := newLayout(m, opts)
	return &DAG{Src: 0, Dst: lay.sBase + lay.nTiers, Mode: mode, layout: lay}
}

// BuildContext constructs the DAG for the model under the given mode,
// evaluating edge weights on a bounded worker pool and honoring
// cancellation: if ctx fires mid-build, the
// partial work is discarded and ctx.Err() is returned.
func BuildContext(ctx context.Context, m *model.Paper, mode Mode, opts Options) (*DAG, error) {
	if err := m.P.Validate(); err != nil {
		return nil, err
	}
	tel := telemetry.FromContext(ctx)
	buildSpan := tel.StartSpan("plan/dag-build")
	defer buildSpan.End()

	d := newDAG(m, mode, opts)
	// The weight slots live in a pooled scratch (flat backing arrays
	// recycled across builds), so a steady stream of cold builds stops
	// allocating them.
	sc := getBuildScratch(&d.layout, tel)
	defer putBuildScratch(sc)
	if err := d.evaluate(ctx, m, sc, opts.Parallelism); err != nil {
		return nil, err
	}
	d.G = d.assemble(sc)
	tel.Counter(telemetry.MDAGBuilds).Inc()
	tel.Gauge(telemetry.MDAGNodes).Set(int64(d.G.NumNodes()))
	tel.Gauge(telemetry.MDAGEdges).Set(int64(d.G.NumEdges()))
	return d, nil
}

// evaluate is phase 1 of a build: every edge weight, computed into the
// scratch's indexed slots. Each slot is written by exactly one worker, so
// the values (and therefore the assembled graph) do not depend on
// scheduling.
func (lay *layout) evaluate(ctx context.Context, m *model.Paper, sc *buildScratch, workers int) error {
	tiers, L, maxKR := lay.tiers, lay.nTiers, lay.maxKR
	n := m.P.Job.NumObjects

	// Mapper column: feasibility plus L (time, cost) pairs per kM.
	if err := parallel.ForEach(ctx, lay.maxKM, workers, func(i int) {
		kM := i + 1
		orch, err := mapreduce.OrchestrateFor(m.P.Job.Profile, n, kM, 2)
		if err != nil {
			return
		}
		if err := model.Feasible(m.P, orch); err != nil {
			return
		}
		sc.mapFeasible[kM-1] = true
		for ti, mem := range tiers {
			sc.mapT[(kM-1)*L+ti] = m.MapperTime(mem, kM)
			sc.mapC[(kM-1)*L+ti] = m.MapperCostFor(orch, mem, kM)
		}
	}); err != nil {
		return err
	}

	// Transfer column: one (time, cost) pair per (class, kR). The pair
	// reads the orchestration's reducing steps and nothing else, and the
	// steps depend on kM only through the mapper count, so a class's row
	// is bound from its smallest feasible kM; a class without one keeps
	// an absent row. Each worker rebinds one RowEval from row to row, so
	// only its first binding allocates (the step-shape buffer).
	for kM := lay.maxKM; kM >= 1; kM-- {
		if sc.mapFeasible[kM-1] {
			sc.repKM[lay.jcOf[kM-1]] = kM
		}
	}
	newRow := func() *model.RowEval { return new(model.RowEval) }
	if err := parallel.ForEachWith(ctx, lay.nJC, workers, newRow, func(e *model.RowEval, jc int) {
		kM := sc.repKM[jc]
		if kM == 0 {
			return
		}
		row := sc.transfer[jc*maxKR : (jc+1)*maxKR]
		for kR := 1; kR <= maxKR; kR++ {
			if err := m.BindRowFor(e, kM, kR); err != nil {
				continue
			}
			row[kR-1] = pairW{ok: true, t: e.TransferTime(), c: e.GlueCost(kR)}
		}
	}); err != nil {
		return err
	}

	// Coordinator and reducer columns: one (time, cost) pair per
	// (kR, tier) each, both read off kR's JHat row — c2 time and V2+W2
	// cost for the coordinator, Eq. 9 compute and VP+WP cost for the
	// reducers.
	return parallel.ForEachWith(ctx, maxKR, workers, newRow, func(e *model.RowEval, i int) {
		kR := i + 1
		if err := m.BindRowHat(e, kR); err != nil {
			return
		}
		coord, reduce := sc.coord[(kR-1)*L:kR*L], sc.reduce[(kR-1)*L:kR*L]
		for ti, mem := range tiers {
			coord[ti] = pairW{ok: true, t: m.CoordCompute(mem), c: e.CoordCost(mem)}
			reduce[ti] = pairW{ok: true, t: e.ReduceCompute(mem), c: e.ReduceCost(mem)}
		}
	})
}

// census counts the edges assemble adds from the evaluated slots, so the
// edge log is reserved once and assembly appends without reallocation.
func (lay *layout) census(sc *buildScratch) int {
	count := func(ps []pairW) int {
		n := 0
		for _, p := range ps {
			if p.ok {
				n++
			}
		}
		return n
	}
	edges := 2 * lay.nTiers // source and destination columns
	for _, ok := range sc.mapFeasible {
		if ok {
			edges += lay.nTiers + 1 // the tier fan in, the class edge out
		}
	}
	// A present coordinator slot is two edges: into (kR, a) and on to
	// the join.
	return edges + count(sc.transfer) + 2*count(sc.coord) + count(sc.reduce)
}

// assemble is phase 2 of a build: the graph, put together serially from
// the evaluated slots in source order — node ids ascend column by column,
// destination last, and every node's edges are added in one run — so the
// graph's log is its CSR and freezing it copies nothing.
func (d *DAG) assemble(sc *buildScratch) *graph.Graph {
	lay, mode := &d.layout, d.Mode
	tiers, L, maxKM, maxKR := lay.tiers, lay.nTiers, lay.maxKM, lay.maxKR
	g := graph.New(d.Dst + 1) // dst is the last node
	g.Reserve(lay.census(sc))

	// tieEps breaks objective ties toward the cheaper side metric:
	// with the speed floor, many configurations have identical times and
	// Dijkstra would otherwise pick an arbitrary (pricier) one.
	const tieEps = 1e-7
	addEdge := func(u, v int, timeW, costW float64) {
		if math.IsInf(timeW, 1) || math.IsInf(costW, 1) {
			return // infeasible combination: no edge
		}
		if mode == MinimizeTime {
			g.AddEdge(u, v, timeW+tieEps*costW, costW)
		} else {
			g.AddEdge(u, v, costW+tieEps*timeW, timeW)
		}
	}

	// source -> mapper memory tiers.
	for ti := range tiers {
		addEdge(d.Src, lay.iBase+ti, 0, 0)
	}

	// mapper-mem -> objects-per-mapper: Eq. 4 time, U1+V1+W1 cost.
	// Infeasible kM values (mapper count over the lambda limit R) have no
	// row and contribute no edges.
	for ti := range tiers {
		for kM := 1; kM <= maxKM; kM++ {
			if sc.mapFeasible[kM-1] {
				addEdge(lay.iBase+ti, lay.kmBase+(kM-1), sc.mapT[(kM-1)*L+ti], sc.mapC[(kM-1)*L+ti])
			}
		}
	}

	// objects-per-mapper -> its transfer class, free: the class is the
	// part of kM the rest of the path can still read.
	for kM := 1; kM <= maxKM; kM++ {
		if sc.mapFeasible[kM-1] {
			addEdge(lay.kmBase+(kM-1), lay.jcBase+lay.jcOf[kM-1], 0, 0)
		}
	}

	// transfer class -> objects-per-reducer: transfer times, glue costs
	// (requests + invocations).
	for jc := 0; jc < lay.nJC; jc++ {
		for kR := 1; kR <= maxKR; kR++ {
			if w := sc.transfer[jc*maxKR+(kR-1)]; w.ok {
				addEdge(lay.jcBase+jc, lay.krBase+(kR-1), w.t, w.c)
			}
		}
	}

	// objects-per-reducer -> (kR, coordinator memory): c2 time, V2+W2
	// cost.
	for kR := 1; kR <= maxKR; kR++ {
		for ta := range tiers {
			if w := sc.coord[(kR-1)*L+ta]; w.ok {
				addEdge(lay.krBase+(kR-1), lay.kraBase+(kR-1)*L+ta, w.t, w.c)
			}
		}
	}

	// (kR, coordinator memory) -> kR's join, free: the reduce weights
	// below read kR and not the coordinator tier.
	for kR := 1; kR <= maxKR; kR++ {
		for ta := range tiers {
			if sc.coord[(kR-1)*L+ta].ok {
				addEdge(lay.kraBase+(kR-1)*L+ta, lay.joinBase+(kR-1), 0, 0)
			}
		}
	}

	// kR's join -> reducer memory: Eq. 9 compute, VP+WP cost.
	for kR := 1; kR <= maxKR; kR++ {
		for ts := range tiers {
			if w := sc.reduce[(kR-1)*L+ts]; w.ok {
				addEdge(lay.joinBase+(kR-1), lay.sBase+ts, w.t, w.c)
			}
		}
	}

	// reducer memory -> destination.
	for ts := range tiers {
		addEdge(lay.sBase+ts, d.Dst, 0, 0)
	}
	return g
}

// WithGraph returns a copy of the DAG whose searches run on g, sharing
// d's decoder. The copy starts without to-go bounds of its own. No
// solver needs it — a frozen graph is never mutated, so every search runs
// on d.G — but the benchmark's layer walk still times it.
func (d *DAG) WithGraph(g *graph.Graph) *DAG {
	return &DAG{G: g, Src: d.Src, Dst: d.Dst, Mode: d.Mode, layout: d.layout}
}

// ToGoBounds returns the admissible per-node bounds of G toward Dst
// (graph.ToGoBounds), computing them on the first call and handing the
// same arrays to every later one. Bounds are a pure function of a graph
// that no longer changes, so they belong to the template: a shape pays
// for them once — on its first binding request or frontier sweep, never
// on a request the unconstrained optimum already answers — and they go
// when the template is evicted. Concurrent first callers compute once;
// the one that does records a plan/togo-bounds span on the context's
// registry. G is frozen and never changes, so the bounds hold for the
// template's lifetime, Algorithm 1 included: its deletions are bans in
// its own search scratch.
func (d *DAG) ToGoBounds(ctx context.Context) *graph.Bounds {
	d.boundsOnce.Do(func() {
		sp := telemetry.FromContext(ctx).StartSpan("plan/togo-bounds")
		d.bounds = d.G.ToGoBounds(d.Dst)
		sp.End()
	})
	return d.bounds
}

// Decode maps a source-to-destination path back to a configuration. A
// path that walks the nine columns but whose transfer class is not its
// k_M's, or whose (k_R, a) or join node belongs to another k_R, is not a
// configuration and is rejected.
func (d *DAG) Decode(p graph.Path) (mapreduce.Config, error) {
	if len(p.Nodes) != 9 || p.Nodes[0] != d.Src || p.Nodes[8] != d.Dst {
		return mapreduce.Config{}, fmt.Errorf("dag: path %v is not a full configuration", p.Nodes)
	}
	L := d.nTiers
	iIdx := p.Nodes[1] - d.iBase
	kM := p.Nodes[2] - d.kmBase + 1
	jc := p.Nodes[3] - d.jcBase
	kR := p.Nodes[4] - d.krBase + 1
	kra := p.Nodes[5] - d.kraBase
	join := p.Nodes[6] - d.joinBase
	sIdx := p.Nodes[7] - d.sBase
	if iIdx < 0 || iIdx >= L || sIdx < 0 || sIdx >= L || kra < 0 ||
		kM < 1 || kM > d.maxKM || kR < 1 || kR > d.maxKR {
		return mapreduce.Config{}, fmt.Errorf("dag: path %v decodes out of range", p.Nodes)
	}
	if d.jcOf[kM-1] != jc {
		return mapreduce.Config{}, fmt.Errorf("dag: path leaves k_M=%d through another mapper count's transfer class: %v", kM, p.Nodes)
	}
	if kra/L+1 != kR || join+1 != kR {
		return mapreduce.Config{}, fmt.Errorf("dag: path switches k_R mid-way: %v", p.Nodes)
	}
	return mapreduce.Config{
		MapperMemMB:    d.tiers[iIdx],
		CoordMemMB:     d.tiers[kra%L],
		ReducerMemMB:   d.tiers[sIdx],
		ObjsPerMapper:  kM,
		ObjsPerReducer: kR,
	}, nil
}
