// Package telemetry is Astra's dependency-light observability layer:
// atomic counters, gauges, bounded histograms, and hierarchical
// wall-clock spans, collected in a Registry and exported as Prometheus
// text exposition or JSON (see Snapshot).
//
// The design goal is a zero-cost default: every method is safe on a nil
// receiver and returns immediately, so instrumented code holds plain
// pointers and pays a nil-check — no allocation, no locking — when
// telemetry is disabled. Enabling telemetry must not perturb results
// either: metrics are observations only, and the plan-search engine
// stays bit-deterministic with a registry attached (counters are updated
// with atomics; nothing reads them back into the search).
//
// Registries travel through context (NewContext/FromContext) so the
// concurrent search engine's existing context plumbing carries the
// registry down to the graph solvers and the worker pool without new
// parameters (a request that wants its own numbers back sends a Scope
// instead). All operations are safe for concurrent use.
package telemetry

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// of *Counter (nil) is a no-op.
type Counter struct {
	v      atomic.Int64
	parent *Counter // set on a Scope's counter: every write is repeated on it
}

// Add increments the counter by n; no-op on a nil receiver.
func (c *Counter) Add(n int64) {
	for ; c != nil; c = c.parent {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value. The zero value of *Gauge
// (nil) is a no-op.
type Gauge struct {
	v atomic.Int64
	// parent is set on a Scope's gauge: each operation is repeated on it
	// as issued, so a Set overwrites it and a SetMax can only raise it.
	parent *Gauge
}

// Set stores v; no-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	for ; g != nil; g = g.parent {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta (negative deltas allowed).
func (g *Gauge) Add(delta int64) {
	for ; g != nil; g = g.parent {
		g.v.Add(delta)
	}
}

// SetMax raises the gauge to v if v is larger (a high-water mark).
func (g *Gauge) SetMax(v int64) {
	for ; g != nil; g = g.parent {
		for {
			cur := g.v.Load()
			if v <= cur || g.v.CompareAndSwap(cur, v) {
				break
			}
		}
	}
}

// Value reports the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram: observations are
// counted into the first bucket whose upper bound is >= the value, plus
// an implicit +Inf bucket, with a running sum and count. Buckets are
// fixed at creation; the zero value of *Histogram (nil) is a no-op.
type Histogram struct {
	bounds  []float64      // sorted upper bounds, exclusive of +Inf
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one value; no-op on a nil receiver.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records the value v as n identical observations in one shot —
// one bucket lookup, one atomic add per field. It exists for samplers
// that translate externally-aggregated histograms (the runtime/metrics
// GC-pause and sched-latency distributions) into registry histograms by
// bucket-count deltas. No-op on a nil receiver or non-positive n.
func (h *Histogram) ObserveN(v float64, n int64) {
	if h == nil || n <= 0 || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(n)
	h.count.Add(n)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// DurationBuckets is the default bucket set for wall/virtual durations in
// seconds: 100 us up to ~17 minutes in decade-and-a-half steps.
var DurationBuckets = []float64{1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 60, 300, 1000}

// SizeBuckets is the default bucket set for counts and sizes (powers of
// four up to ~one million).
var SizeBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}

// SpanRecord is one finished span. Hierarchy is encoded in the path
// ("plan/solve/algorithm1/round"). Spans time the planner on the wall
// clock; an executed run's virtual-time phases are the flight recorder's.
type SpanRecord struct {
	// Path is the '/'-joined span hierarchy.
	Path string `json:"path"`
	// Seq orders spans by completion within one registry.
	Seq int64 `json:"seq"`
	// WallStart is when the span started, on the host clock.
	WallStart time.Time `json:"wall_start"`
	// Wall is the span's wall-clock duration.
	Wall time.Duration `json:"wall_ns"`
}

// Span is an in-flight span. A nil *Span is a no-op, so call sites need
// no branches.
type Span struct {
	reg       *Registry
	path      string
	wallStart time.Time
}

// End finishes the span and records it into the registry's bounded span
// buffer.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.reg.record(SpanRecord{
		Path:      s.path,
		WallStart: s.wallStart,
		Wall:      time.Since(s.wallStart),
	})
}

// DefaultSpanCap bounds the per-registry span buffer; completions past
// the cap are counted (SpanDrops) rather than stored, so a pathological
// search cannot grow memory without bound.
const DefaultSpanCap = 8192

// Registry holds one coherent set of metrics and spans. The zero value
// of *Registry (nil) is the no-op default: every method returns
// immediately. Construct with New and share freely across goroutines.
type Registry struct {
	// parent is non-nil on a Scope: counters and gauges created here
	// forward to its same-named series, histograms and spans are its own.
	parent *Registry

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	spanMu    sync.Mutex
	spans     []SpanRecord
	spanSeq   int64
	spanDrops int64
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Scope opens one request's books on r: a registry that starts at zero
// and tees. A counter or gauge obtained from it counts what was written
// through it and repeats every write on r's series of the same name
// (created alongside, as a lookup on r would); histograms and spans are
// simply r's. A tee, not snapshot-and-merge: a merge would have to know
// which gauges are Set and which SetMax. Instrumented code gets sc (via
// NewContext); the opener gets read, which reports a series as written
// through the scope, 0 if untouched — without creating it, where
// Counter(name).Value() would add a zero series to r's exports. A nil
// registry yields a nil scope.
func (r *Registry) Scope() (sc *Registry, read func(name string) int64) {
	if r == nil {
		return nil, func(string) int64 { return 0 }
	}
	sc = &Registry{
		parent:   r,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
	return sc, func(name string) int64 {
		sc.mu.RLock()
		defer sc.mu.RUnlock()
		if c, ok := sc.counters[name]; ok {
			return c.Value()
		}
		return sc.gauges[name].Value()
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (the no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{parent: r.parent.Counter(name)}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use (nil on nil).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{parent: r.parent.Gauge(name)}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later callers' bounds are ignored;
// nil/empty bounds default to DurationBuckets). Returns nil on nil.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if r.parent != nil {
		return r.parent.Histogram(name, bounds)
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	if len(bounds) == 0 {
		bounds = DurationBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; !ok {
		h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// StartSpan opens a root span (nil on a nil registry).
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{reg: r, path: name, wallStart: time.Now()}
}

// record appends a finished span, honoring the buffer cap; a scope hands
// it to its parent.
func (r *Registry) record(rec SpanRecord) {
	if r == nil {
		return
	}
	if r.parent != nil {
		r.parent.record(rec)
		return
	}
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	r.spanSeq++
	rec.Seq = r.spanSeq
	if len(r.spans) >= DefaultSpanCap {
		r.spanDrops++
		return
	}
	r.spans = append(r.spans, rec)
}

// ctxKey keys the registry in a context.
type ctxKey struct{}

// NewContext returns ctx carrying reg. A nil registry returns ctx
// unchanged, so the disabled path allocates nothing.
func NewContext(ctx context.Context, reg *Registry) context.Context {
	if reg == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, reg)
}

// FromContext extracts the registry from ctx, or nil (the no-op
// registry) when absent.
func FromContext(ctx context.Context) *Registry {
	reg, _ := ctx.Value(ctxKey{}).(*Registry)
	return reg
}
