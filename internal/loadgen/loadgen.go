// Package loadgen drives the planning engine at a sustained request
// rate: a seeded, weighted mix of job shapes is replayed by a fixed pool
// of concurrent tenants, every plan flowing through one shared
// DAG-template cache and one shared prediction cache. The output is the
// planner's capacity profile — sustained plans/sec, latency quantiles,
// and cache hit rates — the numbers a multi-tenant planning service is
// sized by.
//
// The workload sequence is deterministic: the shape planned as request i
// is a pure function of (Seed, i), independent of worker scheduling, so
// two runs with the same spec plan the same multiset of jobs and every
// plan is bit-identical to a standalone Plan call for that shape.
package loadgen

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"astra"
	"astra/internal/model"
	"astra/internal/optimizer"
	"astra/internal/pricing"
	"astra/internal/qos"
	"astra/internal/telemetry"
	"astra/internal/workload"
)

// Shape is one job kind in the replayed mix.
type Shape struct {
	// Name labels the shape in reports.
	Name string
	// Job is the workload planned for this shape.
	Job workload.Job
	// Objective is the planning goal submitted with the job.
	Objective optimizer.Objective
	// Weight is the shape's relative frequency in the mix (<= 0 treated
	// as 1).
	Weight int
}

// Spec configures one load run.
type Spec struct {
	// Shapes is the weighted mix; at least one is required.
	Shapes []Shape
	// Concurrency is the number of simultaneous tenants (<= 0: 1). Each
	// tenant runs a serial inner search; cross-tenant concurrency is the
	// parallelism under test.
	Concurrency int
	// MaxPlans stops the run after this many plans. Zero means no count
	// bound (Duration must then be set).
	MaxPlans int
	// Duration stops the run after this much wall time (checked between
	// plans). Zero means no time bound (MaxPlans must then be set).
	Duration time.Duration
	// Seed fixes the shape sequence; two runs with equal Seed and shapes
	// plan the same multiset of jobs.
	Seed int64
	// Templates and Cache are the shared planning caches. Left nil,
	// fresh ones are created for the run, so the report includes the
	// cold ramp-up.
	Templates *optimizer.TemplateCache
	Cache     *model.PredictionCache
	// Tel, when non-nil, receives pool and planner telemetry.
	Tel *telemetry.Registry
	// Solver selects the search strategy (default optimizer.Auto).
	Solver optimizer.Solver
	// RunEvery, when > 0, executes every RunEvery-th planned request on a
	// fresh simulated platform with a streaming QoS monitor attached.
	// Which requests execute is a pure function of the
	// request index, so a count-bounded run executes a deterministic set.
	RunEvery int
	// SLOFactor scales each executed run's deadline relative to its
	// predicted JCT (<= 0: 1.05).
	SLOFactor float64
	// Ledger, when non-nil, aggregates executed runs' SLO outcomes
	// per shape (a fresh one is created when RunEvery > 0 and none is
	// passed, so Result SLO accounting always works).
	Ledger *qos.Ledger
	// TargetURL switches the driver into remote-client mode: instead of
	// planning in-process, every request is POSTed to a running
	// astra-server at this base URL ("http://host:port"). Templates,
	// Cache, and Solver are then server-side concerns and ignored here.
	TargetURL string
	// Tenants spreads remote requests across this many tenant identities
	// ("tenant-0" .. "tenant-N-1") via the X-Astra-Tenant header (<= 0:
	// 1). Local runs plan anonymously and ignore it.
	Tenants int
}

// Result is the run's capacity profile.
type Result struct {
	Plans       int           `json:"plans"`
	Errors      int           `json:"errors"`
	Concurrency int           `json:"concurrency"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	PlansPerSec float64       `json:"plans_per_sec"`

	// Per-plan end-to-end latency quantiles (queue wait + service time;
	// in remote mode also transport).
	P50 time.Duration `json:"p50_ns"`
	P95 time.Duration `json:"p95_ns"`
	P99 time.Duration `json:"p99_ns"`

	// Queue wait vs service time, separated. Locally there is no accept
	// queue, so queue quantiles are zero and service equals plan latency;
	// remotely both come from the server's X-Astra-Queue-Ns /
	// X-Astra-Service-Ns timing headers.
	QueueP50   time.Duration `json:"queue_p50_ns"`
	QueueP95   time.Duration `json:"queue_p95_ns"`
	QueueP99   time.Duration `json:"queue_p99_ns"`
	ServiceP50 time.Duration `json:"service_p50_ns"`
	ServiceP95 time.Duration `json:"service_p95_ns"`
	ServiceP99 time.Duration `json:"service_p99_ns"`

	// Remote-mode outcome counters: 429 responses absorbed by the retry
	// loop, requests abandoned on transport failure, and the server's
	// response-cache verdicts as seen through X-Astra-Cache.
	RateLimited     int `json:"rate_limited"`
	TransportErrors int `json:"transport_errors"`
	RespCacheHits   int `json:"respcache_hits"`
	RespCacheMisses int `json:"respcache_misses"`

	// Cache traffic over the run (deltas for caches the run created,
	// cumulative totals for caches passed in).
	TemplateStats     optimizer.TemplateStats `json:"template_stats"`
	TemplateHitRate   float64                 `json:"template_hit_rate"`
	PredictionHits    uint64                  `json:"prediction_hits"`
	PredictionMisses  uint64                  `json:"prediction_misses"`
	PredictionHitRate float64                 `json:"prediction_hit_rate"`

	// PerShape counts how many plans each shape received.
	PerShape map[string]int `json:"per_shape"`

	// SLO accounting for executed runs (RunEvery > 0): totals plus the
	// per-shape attainment split.
	Runs             int                 `json:"runs"`
	DeadlineAttained int                 `json:"deadline_attained"`
	DeadlineBreached int                 `json:"deadline_breached"`
	SLOPerShape      map[string]ShapeSLO `json:"slo_per_shape,omitempty"`
}

// ShapeSLO is one shape's deadline-attainment split across executed runs.
type ShapeSLO struct {
	Runs     int `json:"runs"`
	Attained int `json:"attained"`
	Breached int `json:"breached"`
}

// DefaultMix is the standard four-shape tenant mix: frequent small
// word counts, occasional large sorts and queries — the recurring-shape
// regime the template cache exists for.
func DefaultMix() []Shape {
	return []Shape{
		{Name: "wordcount-1gb", Job: workload.WordCount1GB(), Objective: minTime(0.01), Weight: 4},
		{Name: "wordcount-10gb", Job: workload.WordCount10GB(), Objective: minTime(0.05), Weight: 2},
		{Name: "sort-100gb", Job: workload.Sort100GB(), Objective: minTime(1), Weight: 2},
		{Name: "query-25gb", Job: workload.Query25GB(), Objective: minTime(0.25), Weight: 1},
	}
}

func minTime(budget float64) optimizer.Objective {
	return optimizer.Objective{Goal: optimizer.MinTimeUnderBudget, Budget: pricing.USD(budget)}
}

// MixByNames filters DefaultMix to the named shapes, preserving weights.
func MixByNames(names []string) ([]Shape, error) {
	all := DefaultMix()
	byName := make(map[string]Shape, len(all))
	for _, s := range all {
		byName[s.Name] = s
	}
	var mix []Shape
	for _, n := range names {
		s, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("loadgen: unknown shape %q (have %s)", n, shapeNames(all))
		}
		mix = append(mix, s)
	}
	return mix, nil
}

func shapeNames(shapes []Shape) string {
	out := ""
	for i, s := range shapes {
		if i > 0 {
			out += ", "
		}
		out += s.Name
	}
	return out
}

// splitmix64 is the pure per-index hash behind the deterministic shape
// sequence (Vigna's SplitMix64 finalizer).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shapeFor picks the shape of request i: a weighted draw that is a pure
// function of (seed, i), so the sequence is scheduling-independent.
func shapeFor(shapes []Shape, weights []int, total int, seed int64, i int) int {
	r := int(splitmix64(uint64(seed)^(uint64(i)*0x5851f42d4c957f2d)) % uint64(total))
	for s, w := range weights {
		if r < w {
			return s
		}
		r -= w
	}
	return len(shapes) - 1
}

// sample is one completed request's client-side accounting, whichever
// mode produced it.
type sample struct {
	total   time.Duration
	queue   time.Duration
	service time.Duration
	shape   int
	// cache is the server's response-cache verdict (remote mode only).
	cache string
	// rateLimited counts the 429s the request absorbed before succeeding.
	rateLimited int
	// ran marks an executed request; attained is its deadline verdict.
	ran, attained bool
}

// requester performs one request of shape si, optionally executed, on
// behalf of worker w. The two modes differ only here: an in-process plan
// or a POST to a running astra-server.
type requester func(ctx context.Context, w, si int, execute bool) (sample, error)

// Run replays the spec's mix and reports the capacity profile. Per-request
// failures are counted (Result.Errors), not fatal; Run returns an error
// only for an invalid spec or a cancelled context.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	if len(spec.Shapes) == 0 {
		return nil, fmt.Errorf("loadgen: no shapes in mix")
	}
	if spec.MaxPlans <= 0 && spec.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: need MaxPlans or Duration")
	}
	workers := spec.Concurrency
	if workers <= 0 {
		workers = 1
	}
	weights := make([]int, len(spec.Shapes))
	total := 0
	for i, s := range spec.Shapes {
		w := s.Weight
		if w <= 0 {
			w = 1
		}
		weights[i] = w
		total += w
	}
	maxPlans := spec.MaxPlans
	if maxPlans <= 0 {
		// Time-bounded run: bound the index space generously; the
		// deadline stops the claim loop long before it drains.
		maxPlans = 1 << 30
	}
	var deadline time.Time
	if spec.Duration > 0 {
		deadline = time.Now().Add(spec.Duration)
	}
	if spec.Tel != nil {
		ctx = telemetry.NewContext(ctx, spec.Tel)
	}

	remote := spec.TargetURL != ""
	var do requester
	var local *localPlanner
	if remote {
		do = remoteRequester(spec)
	} else {
		local = newLocalPlanner(spec)
		do = local.request
	}

	perWorker := make([][]sample, workers)
	var next, failed, rateLimited atomic.Int64

	// Tenants are plain goroutines, not the planning pool: a load driver
	// must honor the requested concurrency even when it oversubscribes
	// the cores — queueing delay under oversubscription is part of the
	// latency profile being measured.
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= maxPlans {
					return
				}
				si := shapeFor(spec.Shapes, weights, total, spec.Seed, i)
				execute := spec.RunEvery > 0 && i%spec.RunEvery == 0
				s, err := do(ctx, w, si, execute)
				rateLimited.Add(int64(s.rateLimited))
				if err != nil {
					failed.Add(1)
					continue
				}
				s.shape = si
				perWorker[w] = append(perWorker[w], s)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var samples []sample
	for _, s := range perWorker {
		samples = append(samples, s...)
	}
	res := &Result{
		Plans:       len(samples),
		Errors:      int(failed.Load()),
		Concurrency: workers,
		Elapsed:     elapsed,
		RateLimited: int(rateLimited.Load()),
		PerShape:    make(map[string]int, len(spec.Shapes)),
	}
	if remote {
		// Every remote failure is a transport failure or a terminal status.
		res.TransportErrors = res.Errors
	}
	if elapsed > 0 {
		res.PlansPerSec = float64(res.Plans) / elapsed.Seconds()
	}
	res.P50, res.P95, res.P99 = quantiles(samples, func(s sample) time.Duration { return s.total })
	res.QueueP50, res.QueueP95, res.QueueP99 = quantiles(samples, func(s sample) time.Duration { return s.queue })
	res.ServiceP50, res.ServiceP95, res.ServiceP99 = quantiles(samples, func(s sample) time.Duration { return s.service })
	if spec.RunEvery > 0 {
		res.SLOPerShape = make(map[string]ShapeSLO, len(spec.Shapes))
	}
	for _, s := range spec.Shapes {
		res.PerShape[s.Name] = 0
		if spec.RunEvery > 0 {
			res.SLOPerShape[s.Name] = ShapeSLO{}
		}
	}
	for _, s := range samples {
		name := spec.Shapes[s.shape].Name
		res.PerShape[name]++
		switch s.cache {
		case "hit":
			res.RespCacheHits++
		case "miss":
			res.RespCacheMisses++
		}
		if !s.ran {
			continue
		}
		agg := res.SLOPerShape[name]
		agg.Runs++
		res.Runs++
		if s.attained {
			agg.Attained++
			res.DeadlineAttained++
		} else {
			agg.Breached++
			res.DeadlineBreached++
		}
		res.SLOPerShape[name] = agg
	}
	publishClientTiming(spec.Tel, res)
	if local != nil {
		local.finish(res)
	}
	return res, nil
}

// quantiles sorts one extracted dimension and reads the usual three.
func quantiles(samples []sample, dim func(sample) time.Duration) (p50, p95, p99 time.Duration) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	vals := make([]time.Duration, len(samples))
	for i, s := range samples {
		vals[i] = dim(s)
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	n := len(vals)
	return vals[n/2], vals[min(n-1, n*95/100)], vals[min(n-1, n*99/100)]
}

// publishClientTiming exports the driver's client-side view onto the
// registry: p95 queue/service gauges plus remote outcome counters.
func publishClientTiming(tel *telemetry.Registry, res *Result) {
	if tel == nil {
		return
	}
	tel.Gauge(telemetry.MLoadgenQueueWait).Set(res.QueueP95.Nanoseconds())
	tel.Gauge(telemetry.MLoadgenServiceTime).Set(res.ServiceP95.Nanoseconds())
	if res.RateLimited > 0 {
		tel.Counter(telemetry.MLoadgenRateLimited).Add(int64(res.RateLimited))
	}
	if res.TransportErrors > 0 {
		tel.Counter(telemetry.MLoadgenTransport).Add(int64(res.TransportErrors))
	}
}

// localPlanner is the in-process mode: every request plans through the
// run's shared template and prediction caches, and executed requests
// settle into the run's SLO ledger under the "loadgen" tenant.
type localPlanner struct {
	spec   Spec
	params []model.Params
	tc     *optimizer.TemplateCache
	pc     *model.PredictionCache
	ledger *qos.Ledger
}

func newLocalPlanner(spec Spec) *localPlanner {
	l := &localPlanner{spec: spec, tc: spec.Templates, pc: spec.Cache, ledger: spec.Ledger}
	if l.tc == nil {
		l.tc = optimizer.NewTemplateCache(0)
	}
	if l.pc == nil {
		l.pc = model.NewPredictionCache()
	}
	if l.ledger == nil && spec.RunEvery > 0 {
		l.ledger = qos.NewLedger()
	}
	if l.spec.SLOFactor <= 0 {
		l.spec.SLOFactor = 1.05
	}
	// Pre-resolve per-shape parameterizations once; the planner per
	// request is then cheap to construct.
	l.params = make([]model.Params, len(spec.Shapes))
	for i, s := range spec.Shapes {
		l.params[i] = model.DefaultParams(s.Job)
	}
	return l
}

// request plans shape si and, when asked, executes the plan on a fresh
// simulated platform under a QoS monitor. The run's SLO deadline is
// SLOFactor x the predicted JCT, so attainment measures how reliably
// execution honors the planner's Eq. 20 contract under the fleet's
// shapes. Latency is the plan's alone: there is no accept queue
// in-process, so service time is the whole of it.
func (l *localPlanner) request(ctx context.Context, _, si int, execute bool) (sample, error) {
	pl := optimizer.New(l.params[si])
	pl.Solver = l.spec.Solver
	pl.Parallelism = 1
	pl.Templates, pl.Cache = l.tc, l.pc
	pl.Tel = l.spec.Tel
	t0 := time.Now()
	plan, err := pl.PlanContext(ctx, l.spec.Shapes[si].Objective)
	lat := time.Since(t0)
	if err != nil {
		return sample{}, err
	}
	s := sample{total: lat, service: lat}
	if execute {
		mon := astra.NewQoSMonitor(astra.QoSOptions{
			Deadline: time.Duration(l.spec.SLOFactor * float64(plan.Exact.JCT())),
			Tenant:   "loadgen",
			Job:      l.spec.Shapes[si].Name,
			Ledger:   l.ledger,
		})
		if _, err := astra.RunWith(l.params[si], plan.Config, astra.WithQoSMonitor(mon)); err != nil {
			return sample{}, err
		}
		s.ran, s.attained = true, mon.State() != qos.Breached
	}
	return s, nil
}

// finish adds what only an in-process run can report: the SLO ledger's
// published view and the shared caches' traffic.
func (l *localPlanner) finish(res *Result) {
	if l.spec.RunEvery > 0 {
		l.ledger.Publish(l.spec.Tel)
	}
	res.TemplateStats = l.tc.Stats()
	res.TemplateHitRate = res.TemplateStats.HitRate()
	res.PredictionHits, res.PredictionMisses = l.pc.Stats()
	if t := res.PredictionHits + res.PredictionMisses; t > 0 {
		res.PredictionHitRate = float64(res.PredictionHits) / float64(t)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
