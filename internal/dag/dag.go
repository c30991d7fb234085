// Package dag constructs the configuration DAG of the paper's Fig. 5: a
// layered graph whose source-to-destination paths enumerate complete
// resource configurations, with edge weights carrying the phase times (or
// phase costs) of the model so the optimal configuration is a shortest
// path.
//
// Column layout (left to right): source, mapper memory tier (x_i), mapper
// parallelism (expressed as objects-per-mapper, which fixes j), objects
// per reducer (k_R), coordinator memory tier, reducer memory tier,
// destination. Coordinator-memory nodes are keyed (k_R, a) so the final
// edge set can compute the reduce-phase terms that need k_R — the minimal
// state augmentation that makes the paper's drawing well-defined.
//
// Every edge carries both the objective weight and the other metric as a
// side weight, so the constrained searches (Algorithm 1, Yen, exact
// label-setting) can enforce the budget or deadline along the path.
//
// Edge-weight evaluation — thousands of analytic model calls over L
// memory tiers and N fan-in candidates — is sharded across a bounded
// worker pool (Options.Parallelism); the weights are computed into
// per-index slots and the graph is assembled serially in a fixed order,
// so the built DAG is bit-for-bit identical at every parallelism degree.
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
	// KeepDominatedTiers disables the pruning of memory tiers above the
	// speed floor (used by ablations that want the paper's full L = 46).
	KeepDominatedTiers bool
	// Parallelism bounds the worker pool used for edge-weight evaluation:
	// 0 means every available core, 1 forces the serial path. The built
	// graph is identical at every setting.
	Parallelism int
}

// Fingerprint returns a stable hash of everything in the options that
// shapes the built graph: the tier list, the kM/kR caps, and the
// dominated-tier switch. Parallelism is deliberately excluded — the
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
	if o.KeepDominatedTiers {
		u64(1)
	} else {
		u64(0)
	}
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
}

// layout is what Decode needs to read a path back: the tier list, the
// fan-in caps and the node id base of each column.
type layout struct {
	tiers  []int
	maxKM  int
	maxKR  int
	nTiers int

	iBase, kmBase, krBase, kraBase, sBase int
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
	tiers := opts.Tiers
	if len(tiers) == 0 {
		tiers = m.P.Sheet.Lambda.MemoryTiers()
	}
	// Tiers strictly above the speed floor are dominated: the speed model
	// gives them no extra compute speed while the GB-second price keeps
	// rising, so no optimum — for either objective — ever uses one.
	if floor := m.P.Speed.FloorMemMB; floor > 0 && !opts.KeepDominatedTiers {
		kept := tiers[:0:0]
		for _, t := range tiers {
			if t <= floor {
				kept = append(kept, t)
			}
		}
		if len(kept) > 0 && kept[len(kept)-1] < floor && m.P.Sheet.Lambda.ValidMemory(floor) {
			kept = append(kept, floor)
		}
		if len(kept) > 0 {
			tiers = kept
		}
	}
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
	workers := opts.Parallelism

	d := &DAG{
		Mode:   mode,
		layout: layout{tiers: tiers, maxKM: maxKM, maxKR: maxKR, nTiers: L},
	}
	// Node ids: [src, dst, i x L, kM x maxKM, kR x maxKR, (kR,a) x maxKR*L, s x L]
	d.Src = 0
	d.Dst = 1
	d.iBase = 2
	d.kmBase = d.iBase + L
	d.krBase = d.kmBase + maxKM
	d.kraBase = d.krBase + maxKR
	d.sBase = d.kraBase + maxKR*L

	// --- Phase 1: evaluate every edge weight into indexed slots. Each
	// slot is written by exactly one worker, so the values (and therefore
	// the assembled graph) do not depend on scheduling. The slots live in
	// a pooled scratch (flat backing arrays recycled across builds), so a
	// steady stream of cold builds stops allocating them.
	sc := getBuildScratch(L, maxKM, maxKR, tel)
	defer putBuildScratch(sc)

	// Mapper column: feasibility plus L (time, cost) pairs per kM.
	if err := parallel.ForEach(ctx, maxKM, workers, func(i int) {
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
		return nil, err
	}

	// Transfer column: one (time, cost) pair per feasible (kM, kR).
	for kM := 1; kM <= maxKM; kM++ {
		if sc.mapFeasible[kM-1] {
			sc.feasKM = append(sc.feasKM, kM)
		}
	}
	if err := parallel.ForEach(ctx, len(sc.feasKM), workers, func(i int) {
		kM := sc.feasKM[i]
		row := sc.transfer[(kM-1)*maxKR : kM*maxKR]
		var e model.RowEval // orchestration + shapes bound once per kR
		for kR := 1; kR <= maxKR; kR++ {
			if err := m.BindRowFor(&e, kM, kR); err != nil {
				continue
			}
			row[kR-1] = pairW{ok: true, t: e.TransferTime(), c: e.GlueCost(kR)}
		}
	}); err != nil {
		return nil, err
	}

	// Coordinator column: one (time, cost) pair per (kR, tier).
	if err := parallel.ForEach(ctx, maxKR, workers, func(i int) {
		kR := i + 1
		row := sc.coord[(kR-1)*L : kR*L]
		var e model.RowEval
		if err := m.BindRowHat(&e, kR); err == nil {
			for ta, mem := range tiers {
				row[ta] = pairW{ok: true, t: m.CoordCompute(mem), c: e.CoordCost(mem)}
			}
		}
	}); err != nil {
		return nil, err
	}

	// Reducer column: Eq. 9 compute and VP+WP cost depend only on
	// (kR, s); one evaluation per pair, fanned out over kR.
	if err := parallel.ForEach(ctx, maxKR, workers, func(i int) {
		kR := i + 1
		row := sc.reduce[(kR-1)*L : kR*L]
		var e model.RowEval
		if err := m.BindRowHat(&e, kR); err == nil {
			for ts, mem := range tiers {
				row[ts] = pairW{ok: true, t: e.ReduceCompute(mem), c: e.ReduceCost(mem)}
			}
		}
	}); err != nil {
		return nil, err
	}

	// --- Phase 2: assemble the graph serially, in a fixed column order,
	// from the precomputed slots. The edge log is reserved to the slot
	// census up front, so assembly appends without reallocation. ---
	total := d.sBase + L
	g := graph.New(total)
	d.G = g
	edgeCount := 2 * L // source and destination columns
	edgeCount += len(sc.feasKM) * L
	for _, p := range sc.transfer {
		if p.ok {
			edgeCount++
		}
	}
	for _, p := range sc.coord {
		if p.ok {
			edgeCount++
		}
	}
	for kR := 1; kR <= maxKR; kR++ {
		okReduce := 0
		for ts := 0; ts < L; ts++ {
			if sc.reduce[(kR-1)*L+ts].ok {
				okReduce++
			}
		}
		edgeCount += okReduce * L // one fan per coordinator tier
	}
	g.Reserve(edgeCount)

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
		addEdge(d.Src, d.iBase+ti, 0, 0)
	}

	// mapper-mem -> objects-per-mapper: Eq. 4 time, U1+V1+W1 cost.
	// Infeasible kM values (mapper count over the lambda limit R) have no
	// row and contribute no edges.
	for kM := 1; kM <= maxKM; kM++ {
		if !sc.mapFeasible[kM-1] {
			continue
		}
		for ti := range tiers {
			addEdge(d.iBase+ti, d.kmBase+(kM-1), sc.mapT[(kM-1)*L+ti], sc.mapC[(kM-1)*L+ti])
		}
	}

	// objects-per-mapper -> objects-per-reducer: transfer times, glue
	// costs (requests + invocations).
	for kM := 1; kM <= maxKM; kM++ {
		for kR := 1; kR <= maxKR; kR++ {
			if w := sc.transfer[(kM-1)*maxKR+(kR-1)]; w.ok {
				addEdge(d.kmBase+(kM-1), d.krBase+(kR-1), w.t, w.c)
			}
		}
	}

	// objects-per-reducer -> (kR, coordinator memory): c2 time, V2+W2 cost.
	for kR := 1; kR <= maxKR; kR++ {
		for ta := range tiers {
			if w := sc.coord[(kR-1)*L+ta]; w.ok {
				addEdge(d.krBase+(kR-1), d.kraBase+(kR-1)*L+ta, w.t, w.c)
			}
		}
	}

	// (kR, coord-mem) -> reducer memory: Eq. 9 compute, VP+WP cost.
	for kR := 1; kR <= maxKR; kR++ {
		for ta := 0; ta < L; ta++ {
			from := d.kraBase + (kR-1)*L + ta
			for ts := range tiers {
				if w := sc.reduce[(kR-1)*L+ts]; w.ok {
					addEdge(from, d.sBase+ts, w.t, w.c)
				}
			}
		}
	}

	// reducer memory -> destination.
	for ts := range tiers {
		addEdge(d.sBase+ts, d.Dst, 0, 0)
	}
	tel.Counter(telemetry.MDAGBuilds).Inc()
	tel.Gauge(telemetry.MDAGNodes).Set(int64(g.NumNodes()))
	tel.Gauge(telemetry.MDAGEdges).Set(int64(g.NumEdges()))
	return d, nil
}

// WithGraph returns a copy of the DAG whose searches run on g —
// typically a Clone of the original graph, so destructive searches
// (Algorithm 1) can reuse one memoized build. The copy starts without
// to-go bounds: they describe d.G, not g.
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
// registry. G must not be mutated afterwards: destructive searches run on
// WithGraph(G.Clone()), which carries no bounds.
func (d *DAG) ToGoBounds(ctx context.Context) *graph.Bounds {
	d.boundsOnce.Do(func() {
		sp := telemetry.FromContext(ctx).StartSpan("plan/togo-bounds")
		d.bounds = d.G.ToGoBounds(d.Dst)
		sp.End()
	})
	return d.bounds
}

// Decode maps a source-to-destination path back to a configuration.
func (d *DAG) Decode(p graph.Path) (mapreduce.Config, error) {
	if len(p.Nodes) != 7 || p.Nodes[0] != d.Src || p.Nodes[6] != d.Dst {
		return mapreduce.Config{}, fmt.Errorf("dag: path %v is not a full configuration", p.Nodes)
	}
	L := d.nTiers
	iIdx := p.Nodes[1] - d.iBase
	kM := p.Nodes[2] - d.kmBase + 1
	kR := p.Nodes[3] - d.krBase + 1
	kra := p.Nodes[4] - d.kraBase
	aIdx := kra % L
	if kra/L+1 != kR {
		return mapreduce.Config{}, fmt.Errorf("dag: path switches k_R mid-way: %v", p.Nodes)
	}
	sIdx := p.Nodes[5] - d.sBase
	if iIdx < 0 || iIdx >= L || sIdx < 0 || sIdx >= L || aIdx < 0 ||
		kM < 1 || kM > d.maxKM || kR < 1 || kR > d.maxKR {
		return mapreduce.Config{}, fmt.Errorf("dag: path %v decodes out of range", p.Nodes)
	}
	return mapreduce.Config{
		MapperMemMB:    d.tiers[iIdx],
		CoordMemMB:     d.tiers[aIdx],
		ReducerMemMB:   d.tiers[sIdx],
		ObjsPerMapper:  kM,
		ObjsPerReducer: kR,
	}, nil
}
