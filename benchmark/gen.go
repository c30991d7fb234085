package main

import (
	"fmt"
	"strconv"
)

// The seeded request generator. Request i of a workload is a pure
// function of (seed, workload, i) — plus, on binding_constraint, the
// cost range the server reported for each shape in warm-up — so a faster
// server sees more requests, never different ones.
//
// Every workload draws its requests in blocks: a block is a seeded
// permutation of the workload's fixed list of cells (shape x constraint
// kind), so every block — and therefore every prefix, up to one partial
// block — serves the same multiset of work. The seed decides the order
// inside each block, the tenant of each request, the values of the
// non-binding constraints and the shapes cold_shapes draws. The named
// shapes themselves are constants of the benchmark: a planner's cost
// depends on them far more than on anything else, and a metric that
// moved with the seed could not be compared between two commits.

const numTenants = 8

// shape is one job shape on the wire.
type shape struct {
	Workload    string
	NumObjects  int
	ObjectBytes int64
}

const mib = 1 << 20

// midShapes are the eight mid-size shapes of comparable planning cost
// that resp_hit, template_hit and frontier_stream share.
var midShapes = [8]shape{
	{"wordcount", 112, 64 * mib},
	{"sort", 120, 96 * mib},
	{"query", 104, 128 * mib},
	{"grep", 128, 48 * mib},
	{"spark-wordcount", 96, 80 * mib},
	{"spark-sql", 116, 72 * mib},
	{"sort", 100, 56 * mib},
	{"query", 124, 40 * mib},
}

// bindingCell is one binding_constraint cell: a small shape and the
// fraction f that places the min_time budget between the cheapest
// plan's cost and the fastest plan's cost.
type bindingCell struct {
	Shape int
	F     float64
}

// smallShapes are binding_constraint's eight shapes: 16 or 20 objects,
// four profiles. With a binding budget the default solver's cost grows
// steeply with N (hundreds to thousands of Algorithm 1 rounds), so the
// shapes stay small enough that a block of 32 completes in about a
// second and a run measures ten or so whole blocks.
var smallShapes = [8]shape{
	{"query", 16, 64 * mib},
	{"query", 20, 64 * mib},
	{"grep", 16, 64 * mib},
	{"grep", 20, 64 * mib},
	{"spark-sql", 16, 64 * mib},
	{"spark-sql", 20, 64 * mib},
	{"sort", 16, 64 * mib},
	{"sort", 20, 64 * mib},
}

// bindingCells places four budgets per shape inside f in [0.5, 0.95].
// They were chosen on the seed code, from a sweep of f in steps of 0.025,
// so that every request takes 15-150 ms (Algorithm 1's cost has cliffs
// in f: grep at 20 objects takes 90 ms at f = 0.70 and 2.2 s at 0.85),
// the costs are dense around their median and their 90th percentile,
// and 13 of the 32 are cells where Algorithm 1's plan is slower than the
// exact label-setting plan, by 1% to 2.5x.
var bindingCells = [32]bindingCell{
	{0, 0.55}, {0, 0.70}, {0, 0.90}, {0, 0.95},
	{1, 0.55}, {1, 0.70}, {1, 0.80}, {1, 0.825},
	{2, 0.55}, {2, 0.65}, {2, 0.925}, {2, 0.95},
	{3, 0.55}, {3, 0.65}, {3, 0.70}, {3, 0.95},
	{4, 0.55}, {4, 0.70}, {4, 0.80}, {4, 0.95},
	{5, 0.55}, {5, 0.65}, {5, 0.75}, {5, 0.80},
	{6, 0.65}, {6, 0.70}, {6, 0.75}, {6, 0.80},
	{7, 0.65}, {7, 0.70}, {7, 0.75}, {7, 0.85},
}

// execShapes are execute_run's four shapes of comparable simulated size.
var execShapes = [4]shape{
	{"wordcount", 64, 64 * mib},
	{"sort", 64, 64 * mib},
	{"query", 64, 64 * mib},
	{"grep", 64, 64 * mib},
}

// coldProfiles are the profiles cold_shapes draws from.
var coldProfiles = [6]string{"wordcount", "sort", "query", "grep", "spark-wordcount", "spark-sql"}

const (
	// cold_shapes draws num_objects from [coldMinN, coldMinN+coldStrata*coldStratum):
	// one request per stratum per block, so planning cost is unimodal in
	// N and every block covers the range evenly.
	coldMinN      = 64
	coldStrata    = 16
	coldStratum   = 9
	coldBaseBytes = 32 * mib
	coldStepBytes = 4 << 10
	// coldDomain is the size of the object_bytes bijection's domain. The
	// timed sequence uses its lower half and warm-up its upper half, so
	// the two sets of shapes are disjoint.
	coldDomain = 1 << 20
)

// reqKind is what a request asks of the server.
type reqKind int

const (
	kindPlan reqKind = iota
	kindFrontier
	kindSLO
)

// goal is the planning goal of a plan request.
type goal int

const (
	minTime goal = iota
	minCost
)

func (g goal) String() string {
	if g == minCost {
		return "min_cost"
	}
	return "min_time"
}

// request is one generated request and what its response must satisfy.
type request struct {
	Kind   reqKind
	Index  int
	Cell   int // position in the workload's cell list
	Tenant int
	Method string
	Path   string
	Body   []byte

	Shape      shape
	Goal       goal
	BudgetUSD  float64 // min_time constraint
	DeadlineNs int64   // min_cost constraint
	Execute    bool
	// WantCache is the X-Astra-Cache verdict the response must carry
	// ("" when the endpoint sets none).
	WantCache string
}

// workloadID indexes the six workloads; the order is the order they run.
type workloadID int

const (
	respHit workloadID = iota
	templateHit
	bindingConstraint
	coldShapes
	frontierStream
	executeRun
	numWorkloads
)

// maxBlock is the largest block any workload draws.
const maxBlock = 32

// workloadInfo names a workload and says why it exists.
type workloadInfo struct {
	Name string
	Why  string
	// Block is the number of cells in one block of the sequence.
	Block int
	// TraceRequests is how many requests the traced layer pass replays.
	TraceRequests int
	// Gated says the workload is in BENCHMARK.json, so the driver runs it
	// and holds its end-to-end metrics to their bounds. resp_hit is not:
	// its 80 us requests are almost all kernel time, which on a shared
	// host spreads over 10-30% between runs of the same code whatever the
	// client count, pinning or run length (README.md, "Noise floor"). The
	// suite still runs it, as a diagnostic.
	Gated bool
}

var workloads = [numWorkloads]workloadInfo{
	respHit: {"resp_hit",
		"32 primed requests replayed: every timed request is a response-cache read hit, so decode, fingerprint, admission and HTTP are the work and the planner is idle",
		32, 200, false},
	templateHit: {"template_hit",
		"8 primed shapes, every request a distinct loose constraint: response cache misses and evicts, template cache hits; one Dijkstra, exact re-evaluation, explain and encode",
		16, 200, true},
	bindingConstraint: {"binding_constraint",
		"budget between the cheapest and the fastest plan on 8 small shapes: Algorithm 1 rounds and calibration re-solves dominate, and the plan is worse than exact label-setting",
		32, 50, true},
	coldShapes: {"cold_shapes",
		"every request a shape never seen before, 64-207 objects: dag.BuildContext plus template and prediction cache writes and evictions dominate",
		coldStrata, 100, true},
	frontierStream: {"frontier_stream",
		"GET /v1/frontier as SSE, size 24, on 8 primed shapes: to-go bounds, bounded CSP and the SSE writer; streaming bypasses the response cache",
		8, 200, true},
	executeRun: {"execute_run",
		"execute:true on 4 shapes with every 16th request an SLO read: the only path through mapreduce, lambda, objectstore, simtime, flight and qos",
		16, 200, true},
}

func workloadByName(name string) (workloadID, bool) {
	for id, w := range workloads {
		if w.Name == name {
			return workloadID(id), true
		}
	}
	return 0, false
}

// costRange is what warm-up learned about one binding_constraint shape:
// the exact-model cost of its cheapest and of its fastest plan.
type costRange struct{ Min, Max float64 }

// generator makes one workload's request sequence.
type generator struct {
	seed     uint64
	workload workloadID
	// ranges is set by binding_constraint's warm-up, one per small shape.
	ranges [len(smallShapes)]costRange
}

func newGenerator(seed int64, w workloadID) *generator {
	return &generator{seed: uint64(seed), workload: w}
}

// mix is splitmix64's finalizer; hash chains it over its arguments.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Streams keep the generator's independent draws apart.
const (
	streamOrder = iota + 1
	streamTenant
	streamLoose
	streamColdN
	streamColdProfile
	streamColdGoal
	streamColdOffset
	streamExecGoal
)

func (g *generator) hash(stream, a, b uint64) uint64 {
	return mix(mix(mix(mix(g.seed)^uint64(g.workload))^stream)^a) ^ mix(b)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// cellAt returns the cell that position i of the sequence serves: block
// i/n is a Fisher-Yates permutation of the n cells, keyed by the block
// number.
func (g *generator) cellAt(i, n int) int {
	block := uint64(i / n)
	var perm [maxBlock]int
	for k := 0; k < n; k++ {
		perm[k] = k
	}
	for k := n - 1; k > 0; k-- {
		j := int(g.hash(streamOrder, block, uint64(k)) % uint64(k+1))
		perm[k], perm[j] = perm[j], perm[k]
	}
	return perm[i%n]
}

// looseBudget and looseDeadline are constraints no plan comes near: the
// largest predicted cost of any shape here is under $0.1 and the longest
// JCT under an hour. step makes the i-th one distinct from every other;
// u in [0, 1) varies them with the seed, by less than one step.
func looseBudget(u float64, step int) float64 {
	return 10 + float64(step*1000+int(u*1000))*1e-9
}

func looseDeadline(u float64, step int) int64 {
	const hour = int64(3600e9)
	return 100*hour + int64(step*1000+int(u*1000))
}

// planBody renders a POST /v1/plan body. solver is "" for the server's
// default.
func planBody(s shape, gl goal, budget float64, deadlineNs int64, execute bool, solver string) []byte {
	b := make([]byte, 0, 192)
	b = append(b, `{"workload":"`...)
	b = append(b, s.Workload...)
	b = append(b, `","num_objects":`...)
	b = strconv.AppendInt(b, int64(s.NumObjects), 10)
	b = append(b, `,"object_bytes":`...)
	b = strconv.AppendInt(b, s.ObjectBytes, 10)
	b = append(b, `,"objective":{"goal":"`...)
	b = append(b, gl.String()...)
	if gl == minTime {
		b = append(b, `","budget_usd":`...)
		b = strconv.AppendFloat(b, budget, 'g', -1, 64)
	} else {
		b = append(b, `","deadline":"`...)
		b = strconv.AppendInt(b, deadlineNs, 10)
		b = append(b, `ns"`...)
	}
	b = append(b, '}')
	if solver != "" {
		b = append(b, `,"solver":"`...)
		b = append(b, solver...)
		b = append(b, '"')
	}
	if execute {
		b = append(b, `,"execute":true`...)
	}
	return append(b, '}')
}

// frontierPath renders the GET form of the frontier endpoint.
func frontierPath(s shape, stream bool) string {
	p := fmt.Sprintf("/v1/frontier?workload=%s&objects=%d&object_bytes=%d&size=24",
		s.Workload, s.NumObjects, s.ObjectBytes)
	if !stream {
		p += "&stream=0"
	}
	return p
}

func tenantName(t int) string { return "t" + strconv.Itoa(t) }

// plan fills in a plan request's wire form.
func (r *request) plan(solver string) {
	r.Kind, r.Method, r.Path = kindPlan, "POST", "/v1/plan"
	r.Body = planBody(r.Shape, r.Goal, r.BudgetUSD, r.DeadlineNs, r.Execute, solver)
}

// request returns request i of the timed sequence.
func (g *generator) request(i int) request {
	return g.cellRequest(i, g.cellAt(i, workloads[g.workload].Block), "")
}

// exact returns request i as the quality pass re-issues it: the same
// job and constraint, solved by exact label-setting, not executed, and
// with no expectation about the response cache.
func (g *generator) exact(i int) request {
	r := g.cellRequest(i, g.cellAt(i, workloads[g.workload].Block), "csp")
	r.WantCache = ""
	return r
}

// cellRequest builds the request that serves cell at position i.
func (g *generator) cellRequest(i, cell int, solver string) request {
	r := request{
		Index:  i,
		Cell:   cell,
		Tenant: int(g.hash(streamTenant, uint64(i), 0) % numTenants),
	}
	switch g.workload {
	case respHit:
		// The constraint belongs to the cell, not to i: the same 32
		// bodies repeat, which is what makes every one a cache hit.
		r.Shape = midShapes[cell/4]
		r.BudgetUSD = looseBudget(unit(g.hash(streamLoose, uint64(cell), 0)), cell)
		r.WantCache = "hit"
		r.plan(solver)
	case templateHit:
		r.Shape = midShapes[cell/2]
		r.Goal = goal(cell % 2)
		u := unit(g.hash(streamLoose, uint64(cell), 1))
		r.BudgetUSD, r.DeadlineNs = looseBudget(u, i+1), looseDeadline(u, i+1)
		r.WantCache = "miss"
		r.plan(solver)
	case bindingConstraint:
		c := bindingCells[cell]
		r.Shape = smallShapes[c.Shape]
		cr := g.ranges[c.Shape]
		// The relative nudge (under 1e-6) makes every budget distinct,
		// so the response cache misses, without moving the search.
		nudge := 1e-9*unit(g.hash(streamLoose, uint64(cell), 2)) + 1e-12*float64(i+1)
		r.BudgetUSD = (cr.Min + c.F*(cr.Max-cr.Min)) * (1 + nudge)
		r.WantCache = "miss"
		r.plan(solver)
	case coldShapes:
		r.Shape, r.Goal = g.coldShape(uint64(i))
		u := unit(g.hash(streamLoose, uint64(i), 3))
		r.BudgetUSD, r.DeadlineNs = looseBudget(u, i+1), looseDeadline(u, i+1)
		r.WantCache = "miss"
		r.plan(solver)
	case frontierStream:
		r.Kind, r.Method = kindFrontier, "GET"
		r.Shape = midShapes[cell]
		r.Path = frontierPath(r.Shape, true)
	case executeRun:
		if cell == workloads[executeRun].Block-1 {
			r.Kind, r.Method = kindSLO, "GET"
			r.Path = "/v1/tenants/" + tenantName(r.Tenant) + "/slo"
			break
		}
		r.Shape = execShapes[cell%len(execShapes)]
		r.Goal = goal(g.hash(streamExecGoal, uint64(cell), 0) % 2)
		u := unit(g.hash(streamLoose, uint64(i), 4))
		r.BudgetUSD, r.DeadlineNs = looseBudget(u, i+1), looseDeadline(u, i+1)
		r.Execute = solver == ""
		r.WantCache = "bypass"
		r.plan(solver)
	}
	return r
}

// coldShape draws the shape with ordinal k of cold_shapes' domain: the
// timed sequence uses k = i, warm-up k = coldDomain/2 + j. num_objects
// comes from the stratum the block permutation assigned; object_bytes
// from a bijection of k, so no two ordinals — and no two requests in
// flight — ever share a shape.
func (g *generator) coldShape(k uint64) (shape, goal) {
	stratum := g.cellAt(int(k%(coldDomain/2)), coldStrata)
	n := coldMinN + stratum*coldStratum + int(g.hash(streamColdN, k, 0)%coldStratum)
	offset := g.hash(streamColdOffset, 0, 0)
	slot := (k*0x9e3779b1 + offset) % coldDomain // odd multiplier: a bijection mod 2^20
	return shape{
		Workload:    coldProfiles[g.hash(streamColdProfile, k, 0)%uint64(len(coldProfiles))],
		NumObjects:  n,
		ObjectBytes: coldBaseBytes + coldStepBytes*int64(slot),
	}, goal(g.hash(streamColdGoal, k, 0) % 2)
}

// warmup returns the serial warm-up requests that put the server in the
// workload's regime before timing starts. binding_constraint's probes
// double as the measurement of each shape's cost range.
func (g *generator) warmup() []request {
	var out []request
	loose := func(s shape, gl goal, step int) request {
		r := request{Shape: s, Goal: gl, Cell: -1, WantCache: "miss",
			BudgetUSD: looseBudget(0, -step), DeadlineNs: looseDeadline(0, -step)}
		r.plan("")
		return r
	}
	switch g.workload {
	case respHit:
		for c := 0; c < workloads[respHit].Block; c++ {
			r := g.cellRequest(0, c, "")
			r.WantCache = "miss"
			out = append(out, r)
		}
	case templateHit:
		for s, sh := range midShapes {
			out = append(out, loose(sh, minTime, 2*s+1), loose(sh, minCost, 2*s+2))
		}
	case bindingConstraint:
		for s, sh := range smallShapes {
			out = append(out, loose(sh, minCost, 2*s+1), loose(sh, minTime, 2*s+2))
		}
	case coldShapes:
		for j := 0; j < coldWarmupPlans; j++ {
			sh, gl := g.coldShape(coldDomain/2 + uint64(j))
			out = append(out, loose(sh, gl, j+1))
		}
	case frontierStream:
		for c, sh := range midShapes {
			out = append(out, request{Kind: kindFrontier, Method: "GET", Cell: c, Shape: sh,
				Path: frontierPath(sh, false), WantCache: "miss"})
		}
	case executeRun:
		for s, sh := range execShapes {
			out = append(out, loose(sh, minTime, 2*s+1), loose(sh, minCost, 2*s+2))
		}
	}
	for k := range out {
		out[k].Index = -1 - k
		out[k].Tenant = k % numTenants
	}
	return out
}

// learn takes what a warm-up response taught the generator: on
// binding_constraint each shape is probed twice, min_cost first (its
// cheapest plan's cost) and min_time second (its fastest plan's).
func (g *generator) learn(r *request, predictedCostUSD float64) {
	if g.workload != bindingConstraint {
		return
	}
	cr := &g.ranges[(-1-r.Index)/2]
	if r.Goal == minCost {
		cr.Min = predictedCostUSD
	} else {
		cr.Max = predictedCostUSD
	}
}

// ready reports whether warm-up left the generator able to make the
// timed sequence.
func (g *generator) ready() error {
	if g.workload != bindingConstraint {
		return nil
	}
	for s, cr := range g.ranges {
		if !(cr.Max > cr.Min && cr.Min > 0) {
			return fmt.Errorf("shape %d: cost range [%v, %v] leaves no room for a binding budget", s, cr.Min, cr.Max)
		}
	}
	return nil
}

// coldWarmupPlans cold plans overflow the server's 64-entry template
// cache, so the timed phase starts with the cache already evicting.
const coldWarmupPlans = 72
