package main

// The traced layer pass: the only file of the benchmark that links the
// server's internal packages. It runs in-process on one goroutine, after
// the loopback run has ended and its server has exited, and walks a plan
// request through the handler's steps by hand with a span around each
// public call; then, under a sibling root of the same trace, the plan
// decomposed into the calls the planner makes. It uses only the
// context-taking entry points.
//
// A layer's number is the median self time of its spans: a span's
// duration minus the part its child spans cover. The same replay with
// spans off gives bench.trace_overhead_share.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"time"

	"astra"
	"astra/internal/api"
	"astra/internal/dag"
	"astra/internal/graph"
	"astra/internal/mapreduce"
	"astra/internal/model"
	"astra/internal/optimizer"
	srv "astra/internal/server"
	"astra/internal/telemetry"
)

// spanRecord is one line of trace.jsonl. Spans of one request share a
// trace id, workload/index; parent_id 0 marks a root.
type spanRecord struct {
	TraceID  string `json:"trace_id"`
	SpanID   int    `json:"span_id"`
	ParentID int    `json:"parent_id"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	// Allocs is the heap allocations made inside the span, on the few
	// spans that measure them.
	Allocs uint64 `json:"allocs,omitempty"`
}

// tracer records spans in memory; off, every call is a no-op wrapper.
type tracer struct {
	on    bool
	t0    time.Time
	trace string
	spans []spanRecord
	stack []int // indices of the open spans
	// stats is the time spent reading allocator statistics, which is the
	// price of counting allocations, not of recording spans.
	stats time.Duration
}

// span runs f inside a span named name, a child of the innermost open
// span.
func (t *tracer) span(name string, f func()) {
	if !t.on {
		f()
		return
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].SpanID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, spanRecord{TraceID: t.trace, SpanID: idx + 1, ParentID: parent, Name: name})
	t.stack = append(t.stack, idx)
	t.spans[idx].StartNs = int64(time.Since(t.t0))
	f()
	t.spans[idx].EndNs = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// counted is span with the heap allocations inside f recorded. Reading
// the allocator's statistics stops the world, so it happens outside the
// span and only when tracing.
func (t *tracer) counted(name string, f func()) {
	if !t.on {
		f()
		return
	}
	var before, after runtime.MemStats
	t0 := time.Now()
	runtime.ReadMemStats(&before)
	t.stats += time.Since(t0)
	idx := len(t.spans)
	t.span(name, f)
	t0 = time.Now()
	runtime.ReadMemStats(&after)
	t.stats += time.Since(t0)
	t.spans[idx].Allocs = after.Mallocs - before.Mallocs
}

// world is the in-process stand-in for one server: the same caches,
// admission controller and registry wiring cmd/astra-server builds, with
// a second template cache for the decomposed walk so that a shape is
// cold there exactly when it is cold in the whole-plan walk.
type world struct {
	ctx     context.Context
	tel     *astra.Telemetry
	runTel  *astra.Telemetry
	ledger  *astra.QoSLedger
	adm     *srv.Admission
	cache   *srv.RespCache
	tc, tcB *astra.TemplateCache
	pc, pcB *astra.PlanCache
	t       *tracer
	runs    []runCounts // one per monitored run
}

func newWorld() *world {
	tel := astra.NewTelemetry()
	w := &world{
		tel:    tel,
		runTel: astra.NewTelemetry(),
		ledger: astra.NewQoSLedger(),
		// The server's defaults: unlimited rate, 8 in flight, queue of 32.
		adm:   srv.NewAdmission(srv.TenantQuota{Burst: 10, MaxInFlight: 8, MaxQueue: 32}, tel, nil, nil),
		cache: srv.NewRespCache(1024, time.Minute, tel, nil),
		tc:    astra.NewTemplateCache(0),
		tcB:   astra.NewTemplateCache(0),
		pc:    model.NewPredictionCacheWithCap(1 << 18),
		pcB:   model.NewPredictionCacheWithCap(1 << 18),
		t:     &tracer{},
	}
	w.ctx = telemetry.NewContext(context.Background(), tel)
	// Fill the response cache so that every Put in the replay evicts.
	for k := 0; k < 1024; k++ {
		w.cache.Put(fmt.Sprintf("filler|%d", k), []byte("{}"))
	}
	return w
}

// planOpts is the option set the service plans with.
func (w *world) planOpts(solver astra.Solver) []astra.PlanOption {
	return []astra.PlanOption{
		astra.WithSolver(solver),
		astra.WithParallelism(1),
		astra.WithTemplateCache(w.tc),
		astra.WithPlanCache(w.pc),
		astra.WithTelemetry(w.tel),
	}
}

// serve walks one request through the handler's steps, then through the
// decomposition. It returns the plan response of a plan request.
func (w *world) serve(r *request) (*api.PlanResponse, error) {
	switch r.Kind {
	case kindFrontier:
		return nil, w.serveFrontier(r)
	case kindSLO:
		return nil, w.serveSLO(r)
	}
	var (
		t    = w.t
		resp *api.PlanResponse
		err  error
		job  astra.Job
		obj  astra.Objective
		hit  bool
	)
	t.span("request", func() {
		var req *api.PlanRequest
		t.span("api.decode", func() { req, err = api.DecodePlanRequest(bytes.NewReader(r.Body)) })
		if err != nil {
			return
		}
		req.Tenant = api.ResolveTenant(tenantName(r.Tenant), req.Tenant)
		var ticket *srv.Ticket
		t.span("server.admission.admit", func() { ticket, err = w.admit(req.Tenant) })
		if err != nil {
			return
		}
		defer t.span("server.admission.release", ticket.Release)
		var key string
		t.span("api.fingerprint", func() { key = req.Fingerprint() })
		if !req.Execute {
			var body []byte
			t.span("server.respcache.get", func() { body = w.cache.Get(key) })
			if hit = body != nil; hit {
				return
			}
		}
		var solver astra.Solver
		t.span("api.resolve", func() { job, obj, solver, err = req.Resolve() })
		if err != nil {
			return
		}
		if req.Solver == "" {
			solver = astra.SolverAuto
		}
		var plan *astra.ExecutionPlan
		t.counted("optimizer.plan", func() { plan, err = astra.PlanContext(w.ctx, job, obj, w.planOpts(solver)...) })
		if err != nil {
			return
		}
		resp = &api.PlanResponse{
			Config:              plan.Config,
			PredictedJCTSeconds: plan.Exact.JCT().Seconds(),
			PredictedCostUSD:    float64(plan.Exact.TotalCost()),
			Solver:              plan.Search.Solver.String(),
			Search: api.SearchSummary{
				CalibrationRounds: plan.Search.CalibrationRounds,
				CacheHits:         plan.Search.CacheHits,
				CacheMisses:       plan.Search.CacheMisses,
				DAGBuilds:         plan.Search.DAGBuilds,
			},
		}
		if req.Execute {
			if err = w.execute(req.Tenant, r, job, plan.Config, true); err != nil {
				return
			}
		}
		t.span("optimizer.explain", func() { resp.Explain = plan.Explain() })
		var body []byte
		t.span("api.encode", func() { body, err = json.Marshal(resp) })
		if err == nil && !req.Execute {
			t.span("server.respcache.put", func() { w.cache.Put(key, body) })
		}
	})
	if err != nil || hit {
		return nil, err
	}
	t.span("plan.decomposed", func() { err = w.decomposed(job, obj) })
	if err == nil && r.Execute {
		t.span("run.unmonitored", func() { err = w.execute("", r, job, resp.Config, false) })
	}
	return resp, err
}

// admit is the handler's admission step; a rejection is a failure here.
func (w *world) admit(tenant string) (*srv.Ticket, error) {
	ticket, rej, err := w.adm.Admit(w.ctx, tenant)
	if rej != nil {
		return nil, fmt.Errorf("admission rejected tenant %s: %s", tenant, rej.Reason)
	}
	return ticket, err
}

// execute runs a planned configuration on a fresh simulated platform
// with run telemetry and a flight recorder attached, and with the QoS
// monitor when monitored is set. It checks the model-vs-simulator
// identity the loopback run checks over the wire.
func (w *world) execute(tenant string, r *request, job astra.Job, cfg astra.Config, monitored bool) error {
	t := w.t
	var err error
	var bd *model.Breakdown
	if monitored {
		t.span("model.exact_breakdown", func() { bd, err = model.NewExact(model.DefaultParams(job)).PredictBreakdown(cfg) })
		if err != nil {
			return err
		}
	}
	rec := astra.NewFlightRecorder()
	opts := []astra.RunOption{astra.WithRunTelemetry(w.runTel), astra.WithFlightRecorder(rec)}
	name := "mapreduce.run_unmonitored"
	if monitored {
		name = "mapreduce.run"
		opts = append(opts, astra.WithQoSMonitor(astra.NewQoSMonitor(astra.QoSOptions{
			Deadline: time.Duration(1.05 * float64(bd.JCT)),
			Tenant:   tenant,
			Job:      r.Shape.Workload,
			Ledger:   w.ledger,
		})))
	}
	var rep *astra.Report
	t.counted(name, func() { rep, err = astra.RunContext(w.ctx, job, cfg, opts...) })
	if err != nil {
		return err
	}
	if monitored {
		if d := (rep.JCT - bd.JCT).Seconds(); math.Abs(d) > jctTolerance {
			return fmt.Errorf("simulated JCT %v is not the predicted %v", rep.JCT, bd.JCT)
		}
		if !t.on {
			return nil
		}
		w.runs = append(w.runs, runCounts{
			Invocations: rep.Stats.Invocations,
			StoreOps:    rep.Stats.StoreGets + rep.Stats.StorePuts,
			Events:      rec.Seq(),
		})
	}
	return nil
}

// decomposed repeats the plan as the calls the planner makes, the
// calibration loop included: template lookup (building on a miss), clone,
// Algorithm 1 with the label-setting fallback, decode, both models, and
// the two registry snapshots a plan with telemetry attached takes.
func (w *world) decomposed(job astra.Job, obj astra.Objective) error {
	t := w.t
	params := model.DefaultParams(job)
	mode, side := dag.MinimizeTime, float64(obj.Budget)
	if obj.Goal == optimizer.MinCostUnderDeadline {
		mode, side = dag.MinimizeCost, obj.Deadline.Seconds()
	}
	exact := w.pcB.Wrap(model.NewExact(params), params.Fingerprint(), "exact")
	paper := w.pcB.Wrap(model.NewPaper(params), params.Fingerprint(), "paper")
	t.span("telemetry.snapshot", func() { _ = w.tel.Snapshot() })
	const maxCalibrations = 8
	for iter := 0; ; iter++ {
		d, err := w.template(params, mode)
		if err != nil {
			return err
		}
		var work *dag.DAG
		t.span("graph.clone", func() { work = d.WithGraph(d.G.Clone()) })
		var path graph.Path
		t.span("graph.algorithm1", func() { path, err = work.G.Algorithm1Ctx(w.ctx, work.Src, work.Dst, side) })
		if err != nil {
			t.span("graph.csp", func() { path, err = d.G.ConstrainedShortestPathCtx(w.ctx, d.Src, d.Dst, side) })
			if err != nil {
				return err
			}
		}
		var cfg mapreduce.Config
		t.span("dag.decode", func() { cfg, err = d.Decode(path) })
		if err != nil {
			return err
		}
		var pred model.Prediction
		t.span("model.paper_predict", func() { _, err = paper.Predict(cfg) })
		if err != nil {
			return err
		}
		t.span("model.exact_predict", func() { pred, err = exact.Predict(cfg) })
		if err != nil {
			return err
		}
		// The planner's calibration rule: tighten the internal constraint
		// in proportion to the exact model's overshoot and solve again.
		if iter >= maxCalibrations {
			break
		}
		if obj.Goal == optimizer.MinCostUnderDeadline {
			actual := pred.JCT()
			if actual <= obj.Deadline {
				break
			}
			side *= obj.Deadline.Seconds() / actual.Seconds() * 0.995
		} else {
			actual := float64(pred.TotalCost())
			if actual <= float64(obj.Budget) {
				break
			}
			side *= float64(obj.Budget) / actual * 0.995
		}
	}
	t.span("telemetry.snapshot", func() { _ = w.tel.Snapshot() })
	return nil
}

// template resolves a DAG through the decomposition's template cache,
// building it, in a span of its own, on a miss.
func (w *world) template(params model.Params, mode dag.Mode) (*dag.DAG, error) {
	buildName := "dag.build_time_mode"
	if mode == dag.MinimizeCost {
		buildName = "dag.build_cost_mode"
	}
	opts := dag.Options{Parallelism: 1} // the service plans each request serially
	var d *dag.DAG
	var err error
	w.t.span("optimizer.template.get", func() {
		d, err = w.tcB.Get(w.ctx, optimizer.KeyFor(params, mode, opts, false), func(ctx context.Context) (*dag.DAG, error) {
			var built *dag.DAG
			var berr error
			w.t.counted(buildName, func() { built, berr = dag.BuildContext(ctx, model.NewPaper(params), mode, opts) })
			return built, berr
		})
	})
	return d, err
}

// serveFrontier walks a frontier request: the whole sweep with every
// anytime update encoded as the SSE writer would, then the sweep's
// building blocks on the same frozen cost-mode template.
func (w *world) serveFrontier(r *request) error {
	t := w.t
	var err error
	var job astra.Job
	t.span("request", func() {
		var req *api.FrontierRequest
		t.span("api.decode", func() {
			var q url.Values
			if q, err = url.ParseQuery(r.Path[strings.IndexByte(r.Path, '?')+1:]); err == nil {
				req, err = api.FrontierRequestFromQuery(q)
			}
		})
		if err != nil {
			return
		}
		var ticket *srv.Ticket
		t.span("server.admission.admit", func() { ticket, err = w.admit(tenantName(r.Tenant)) })
		if err != nil {
			return
		}
		defer t.span("server.admission.release", ticket.Release)
		t.span("api.resolve", func() { job, err = req.Resolve() })
		if err != nil {
			return
		}
		t.span("optimizer.frontier.sweep", func() {
			_, err = astra.FrontierContext(w.ctx, job,
				astra.WithParallelism(1), astra.WithTemplateCache(w.tc), astra.WithPlanCache(w.pc),
				astra.WithTelemetry(w.tel), astra.WithFrontierSize(req.Size),
				astra.WithFrontierObserver(func(u astra.FrontierUpdate) {
					t.span("api.encode", func() { _, _ = json.Marshal(frontierWire(u)) }) // an update of plain numbers cannot fail to encode
				}))
		})
	})
	if err != nil {
		return err
	}
	t.span("frontier.decomposed", func() {
		params := model.DefaultParams(job)
		var d *dag.DAG
		if d, err = w.template(params, dag.MinimizeCost); err != nil {
			return
		}
		var b *graph.Bounds
		t.span("graph.togo_bounds", func() { b = d.G.ToGoBounds(d.Dst) })
		// One mid-frontier deadline, twice the fastest achievable time,
		// searched with the bounds and without.
		deadline := 2 * b.SideToGo[d.Src]
		t.span("graph.csp_bounded", func() {
			_, err = d.G.ConstrainedShortestPathBoundedCtx(w.ctx, d.Src, d.Dst, deadline, b, math.Inf(1))
		})
		if err != nil {
			return
		}
		t.span("graph.csp", func() { _, err = d.G.ConstrainedShortestPathCtx(w.ctx, d.Src, d.Dst, deadline) })
	})
	return err
}

// frontierWire renders an anytime update into its wire form, as the
// service does before the SSE writer encodes it.
func frontierWire(u astra.FrontierUpdate) api.FrontierUpdate {
	wire := api.FrontierUpdate{
		Phase: u.Phase,
		Final: u.Final,
		Stats: api.FrontierStats{
			Phases:      u.Stats.Phases,
			Searches:    u.Stats.Searches,
			Pruned:      u.Stats.Pruned,
			Evaluations: u.Stats.Evaluations,
		},
	}
	for _, pt := range u.Points {
		wire.Points = append(wire.Points, api.FrontierPoint{
			JCTSeconds: pt.Pred.TotalSec(),
			CostUSD:    float64(pt.Pred.TotalCost()),
			Config:     pt.Config,
		})
	}
	return wire
}

// serveSLO walks a tenant SLO read: admission, a ledger snapshot, encode.
func (w *world) serveSLO(r *request) error {
	t := w.t
	var err error
	t.span("request", func() {
		var ticket *srv.Ticket
		t.span("server.admission.admit", func() { ticket, err = w.admit(tenantName(r.Tenant)) })
		if err != nil {
			return
		}
		defer t.span("server.admission.release", ticket.Release)
		t.span("qos.ledger_read", func() {
			resp := api.TenantSLOResponse{Tenant: tenantName(r.Tenant)}
			for _, e := range w.ledger.Snapshot().Entries {
				if e.Tenant == resp.Tenant {
					resp.Runs += e.Runs
					resp.Entries = append(resp.Entries, e)
				}
			}
			_, err = json.Marshal(resp)
		})
	})
	return err
}

// runCounts is what one monitored run did on the simulated platform.
type runCounts struct {
	Invocations int
	StoreOps    int64
	Events      int64
}

// traceRun is the traced pass's outcome for one workload.
type traceRun struct {
	Requests int // traced requests
	Spans    []spanRecord
	// Traced and Untraced are the mean wall time of a request with spans
	// on and with spans off.
	Traced, Untraced time.Duration
	Runs             []runCounts
	// Batch16 and Serial16 time 16 template-hit plans through
	// astra.PlanBatch and one after another (zero where the workload's
	// requests are not plain loose plans).
	Batch16, Serial16 time.Duration
}

// tracedPass replays the workload's first requests in-process, in a
// world primed by the workload's own warm-up. Spans are on for the even
// positions of the sequence and off for the odd ones, so both halves see
// the same caches, heap and block composition, and the difference
// between their mean request times is the tracing overhead. It stops
// after the workload's count of traced requests or when the budget is
// spent.
func tracedPass(wl workloadID, seed int64, budget time.Duration) (*traceRun, error) {
	tr := &traceRun{}
	w := newWorld()
	gen := newGenerator(seed, wl)
	if err := w.prime(gen); err != nil {
		return nil, fmt.Errorf("prime: %w", err)
	}
	w.runs = nil
	runtime.GC()
	w.t = &tracer{t0: time.Now()}
	var sum [2]time.Duration
	start := time.Now()
	for i := 0; i < 2*workloads[wl].TraceRequests && (i%2 == 1 || time.Since(start) < budget); i++ {
		r := gen.request(i)
		w.t.on = i%2 == 0
		w.t.trace = fmt.Sprintf("%s/%d", workloads[wl].Name, i)
		t0 := time.Now()
		if _, err := w.serve(&r); err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		sum[i%2] += time.Since(t0)
		tr.Requests = i/2 + 1
	}
	if tr.Requests > 0 {
		tr.Traced = (sum[0] - w.t.stats) / time.Duration(tr.Requests)
		tr.Untraced = sum[1] / time.Duration(tr.Requests)
	}
	tr.Spans, tr.Runs = w.t.spans, w.runs
	if wl == respHit || wl == templateHit || wl == coldShapes {
		if err := tr.planBatch16(w, gen); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// prime puts a world in the workload's regime by walking the workload's
// own warm-up requests through it, untraced, and learns what the
// loopback warm-up learns.
func (w *world) prime(gen *generator) error {
	for _, r := range gen.warmup() {
		r := r
		if r.Kind == kindFrontier {
			// ?stream=0 and the stream share the sweep; the walk is the same.
			r.Path = frontierPath(r.Shape, true)
		}
		resp, err := w.serve(&r)
		if err != nil {
			return err
		}
		if resp != nil {
			gen.learn(&r, resp.PredictedCostUSD)
		}
	}
	return gen.ready()
}

// planBatch16 times the workload's first 16 plans, as template hits,
// through astra.PlanBatch and then serially.
func (tr *traceRun) planBatch16(w *world, gen *generator) error {
	var reqs []astra.BatchRequest
	for i := 0; len(reqs) < 16; i++ {
		r := gen.request(i)
		req, err := api.DecodePlanRequest(bytes.NewReader(r.Body))
		if err != nil {
			return err
		}
		job, obj, _, err := req.Resolve()
		if err != nil {
			return err
		}
		reqs = append(reqs, astra.BatchRequest{Job: job, Objective: obj})
	}
	opts := []astra.PlanOption{astra.WithSolver(astra.SolverAuto), astra.WithTemplateCache(w.tc),
		astra.WithPlanCache(w.pc), astra.WithTelemetry(w.tel)}
	// cold_shapes' replay has evicted its first templates by now; plan
	// the 16 once so that both timed passes hit.
	for _, br := range reqs {
		if _, err := astra.PlanContext(w.ctx, br.Job, br.Objective, w.planOpts(astra.SolverAuto)...); err != nil {
			return err
		}
	}
	t0 := time.Now()
	results, err := astra.PlanBatch(w.ctx, reqs, opts...)
	tr.Batch16 = time.Since(t0)
	if err != nil {
		return err
	}
	for _, res := range results {
		if res.Err != nil {
			return res.Err
		}
	}
	t0 = time.Now()
	for _, br := range reqs {
		if _, err := astra.PlanContext(w.ctx, br.Job, br.Objective, w.planOpts(astra.SolverAuto)...); err != nil {
			return err
		}
	}
	tr.Serial16 = time.Since(t0)
	return nil
}

// layers reduces the spans to the traced per-layer metrics.
func (tr *traceRun) layers() values {
	// Self time: a span's duration minus its children's. Span ids count
	// from 1 across the whole pass, so a parent's index is its id - 1.
	self := make([]int64, len(tr.Spans))
	for k, s := range tr.Spans {
		self[k] += s.EndNs - s.StartNs
		if s.ParentID != 0 {
			self[s.ParentID-1] -= s.EndNs - s.StartNs
		}
	}
	selfUs := map[string][]float64{}
	allocs := map[string][]float64{}
	for k, s := range tr.Spans {
		selfUs[s.Name] = append(selfUs[s.Name], float64(self[k])/1e3)
		if s.Allocs > 0 {
			allocs[s.Name] = append(allocs[s.Name], float64(s.Allocs))
		}
	}
	v := values{}
	for metric, span := range map[string]string{
		"api.decode_us":               "api.decode",
		"api.fingerprint_us":          "api.fingerprint",
		"api.resolve_us":              "api.resolve",
		"api.encode_us":               "api.encode",
		"server.admission.admit_us":   "server.admission.admit",
		"server.respcache.get_us":     "server.respcache.get",
		"server.respcache.put_us":     "server.respcache.put",
		"optimizer.plan_us":           "optimizer.plan",
		"optimizer.explain_us":        "optimizer.explain",
		"optimizer.frontier.sweep_us": "optimizer.frontier.sweep",
		"dag.build_time_mode_us":      "dag.build_time_mode",
		"dag.build_cost_mode_us":      "dag.build_cost_mode",
		"dag.decode_us":               "dag.decode",
		"graph.clone_us":              "graph.clone",
		"graph.algorithm1_us":         "graph.algorithm1",
		"graph.csp_us":                "graph.csp",
		"graph.csp_bounded_us":        "graph.csp_bounded",
		"graph.togo_bounds_us":        "graph.togo_bounds",
		"model.paper_predict_us":      "model.paper_predict",
		"model.exact_predict_us":      "model.exact_predict",
		"model.exact_breakdown_us":    "model.exact_breakdown",
		"mapreduce.run_us":            "mapreduce.run",
		"telemetry.snapshot_us":       "telemetry.snapshot",
	} {
		v[metric] = median(selfUs[span])
	}
	v["optimizer.plan_allocs"] = median(allocs["optimizer.plan"])
	v["dag.build_allocs"] = median(append(allocs["dag.build_time_mode"], allocs["dag.build_cost_mode"]...))
	v["mapreduce.run_allocs"] = median(allocs["mapreduce.run"])
	v["qos.monitor_overhead_share"] = 0
	if un := median(selfUs["mapreduce.run_unmonitored"]); un > 0 {
		v["qos.monitor_overhead_share"] = v["mapreduce.run_us"]/un - 1
	}

	// Unattributed share: per request, 1 - (the decomposition's parts) /
	// (the whole plan). The parts are the children of plan.decomposed.
	var shares []float64
	whole := map[string]float64{}
	parts := map[string]float64{}
	for _, s := range tr.Spans {
		switch {
		case s.Name == "optimizer.plan":
			whole[s.TraceID] = float64(s.EndNs - s.StartNs)
		case s.ParentID != 0 && tr.Spans[s.ParentID-1].Name == "plan.decomposed":
			parts[s.TraceID] += float64(s.EndNs - s.StartNs)
		}
	}
	for trace, wns := range whole {
		if p, ok := parts[trace]; ok && wns > 0 {
			shares = append(shares, 1-p/wns)
		}
	}
	sort.Float64s(shares)
	v["optimizer.unattributed_share"] = median(shares)

	var inv, ops, events []float64
	for _, rc := range tr.Runs {
		inv = append(inv, float64(rc.Invocations))
		ops = append(ops, float64(rc.StoreOps))
		events = append(events, float64(rc.Events))
	}
	v["lambda.invocations_per_run"] = median(inv)
	v["objectstore.ops_per_run"] = median(ops)
	v["flight.events_per_run"] = median(events)

	v["parallel.planbatch16_us"] = float64(tr.Batch16) / 1e3
	v["parallel.planbatch16_speedup"] = ratio(float64(tr.Serial16), float64(tr.Batch16))
	v["bench.trace_overhead_share"] = ratio(float64(tr.Traced), float64(tr.Untraced)) - 1
	return v
}
