package optimizer

import (
	"context"

	"astra/internal/dag"
	"astra/internal/lru"
	"astra/internal/model"
	"astra/internal/telemetry"
)

// TemplateCache shares frozen configuration-DAG builds across planner
// instances. Jobs of the same shape — same N, same tier set, same price
// sheet, same model parameters — produce structurally identical Fig. 5
// graphs whose thousands of RowEval edge evaluations are by far the most
// expensive part of a cold plan; keying the finished CSR graph by a
// fingerprint of (model params, DAG mode, dag.Options, model flavor)
// lets every subsequent plan for that shape skip dag.BuildContext
// entirely. Every solver searches the shared template directly — a frozen
// graph never changes, and Algorithm 1's deletions are bans in its own
// search scratch — and the to-go bounds the label-setting solvers and the
// frontier sweep prune with are memoized on it (dag.DAG.ToGoBounds), so
// they too are computed once per shape and evicted with it.
//
// The bound, the eviction and the single-flight builds — a thundering
// herd of identical jobs performs one build while the rest wait on it —
// are lru.Cache's; this type adds the key, the freeze before publish and
// the astra_plan_template_* series. Eviction is segmented LRU: a new
// template is on probation until a later plan reads it, probation holds
// at most half the bound, and its coldest template goes first. So a run
// of one-off shapes recycles at most half the cache among themselves and
// never evicts a template that plans come back to. Evicted templates stay
// valid for searches already holding them, the arrays are simply no
// longer findable. All methods are safe for concurrent use.
type TemplateCache struct {
	c *lru.Cache[TemplateKey, *dag.DAG]
}

// TemplateKey identifies one DAG template. Two planning calls with equal
// keys are guaranteed (and property-tested) to build bit-identical
// graphs.
type TemplateKey struct {
	// Params is model.Params.Fingerprint(): job shape, profile, price
	// sheet contents, speed model, latencies.
	Params uint64
	// Opts is dag.Options.Fingerprint(): the tier list (parallelism
	// excluded — it never changes the graph).
	Opts uint64
	// Mode is the shortest-path objective the edge weights encode.
	Mode dag.Mode
	// Aggregate selects the literal Eq. 9 aggregate model flavor.
	Aggregate bool
}

// KeyFor derives the template key for a parameterization.
func KeyFor(params model.Params, mode dag.Mode, opts dag.Options, aggregate bool) TemplateKey {
	return TemplateKey{
		Params:    params.Fingerprint(),
		Opts:      opts.Fingerprint(),
		Mode:      mode,
		Aggregate: aggregate,
	}
}

// DefaultTemplateCap bounds NewTemplateCache(0). A template is ~0.6 MB at
// the Sort100GB scale — 0.58 MB of CSR arrays for its 27,454 edges, plus
// 0.1 MB of to-go bounds once a binding plan computes them — so a full
// cache holds ~45 MB; 64 distinct (shape, mode) pairs is far beyond what
// a tenant mix touches between evictions. One-off shapes, built once and
// never planned again, hold at most 32 of the 64 (the probation half).
const DefaultTemplateCap = 64

// NewTemplateCache creates a bounded template cache. maxTemplates <= 0
// selects DefaultTemplateCap; there is deliberately no unbounded mode —
// a planning service must not grow without limit with tenant diversity.
func NewTemplateCache(maxTemplates int) *TemplateCache {
	if maxTemplates <= 0 {
		maxTemplates = DefaultTemplateCap
	}
	return &TemplateCache{c: lru.New[TemplateKey, *dag.DAG](maxTemplates, 0, nil)}
}

// Get resolves a template, building it through build on a miss. Exactly
// one concurrent caller per key runs build; the rest block on its result
// (or their own ctx). A failed build is not cached: waiters retry — a
// caller whose own build fails gets that error, and one builder's
// cancellation never poisons the key for others. The returned DAG is
// shared and frozen: every search runs on it in place.
//
// Get is the only writer of astra_plan_template_*: each call counts what
// it did into the caller's registry (telemetry.FromContext). The cache
// keeps no tally of its own, so those series are the record of its
// traffic.
func (tc *TemplateCache) Get(ctx context.Context, key TemplateKey, build func(context.Context) (*dag.DAG, error)) (*dag.DAG, error) {
	// Looked up on every call, so all five are exported from the first on.
	tel := telemetry.FromContext(ctx)
	hits, misses := tel.Counter(telemetry.MPlanTemplateHits), tel.Counter(telemetry.MPlanTemplateMisses)
	builds, waits := tel.Counter(telemetry.MPlanTemplateBuilds), tel.Counter(telemetry.MPlanTemplateWaits)
	evictions := tel.Counter(telemetry.MPlanTemplateEvictions)
	built := false
	d, res, err := tc.c.Do(ctx, key, func(ctx context.Context) (*dag.DAG, error) {
		built = true
		misses.Inc()
		builds.Inc()
		d, err := build(ctx)
		if err == nil {
			// Freeze before publishing so no reader ever contends on the
			// lazy CSR build.
			d.G.Freeze()
		}
		return d, err
	}, func() {
		misses.Inc()
		waits.Inc()
	})
	if res.Hit {
		hits.Inc()
	}
	evictions.Add(int64(res.Evicted))
	if built && tel != nil {
		tel.Gauge(telemetry.MPlanTemplateEntries).Set(int64(tc.c.Len()))
	}
	return d, err
}
