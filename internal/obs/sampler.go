package obs

import (
	"runtime/metrics"
	"sync"
	"time"

	"astra/internal/telemetry"
)

// Sampler periodically reads the Go runtime's own instrumentation
// (runtime/metrics) and republishes it into a telemetry registry as
// astra_go_* series, so one /metrics scrape carries both the simulator's
// domain counters and the process health needed to interpret them (GC
// pressure during a frontier sweep, goroutine growth during SSE fan-out).
//
// Scalars become gauges. Runtime histograms are cumulative-free bucket
// count vectors, so each tick diffs against the previous sample and feeds
// the per-bucket increase into a registry histogram via ObserveN, using a
// representative value per bucket (the finite right edge, else the left).
type Sampler struct {
	reg *telemetry.Registry

	samples []metrics.Sample
	prev    map[string][]uint64 // histogram name -> last seen bucket counts

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// The runtime metrics we republish. Names are stable runtime/metrics keys;
// unknown keys (older toolchains) read as KindBad and are skipped.
var sampledMetrics = []struct {
	key   string
	name  string // telemetry series name
	gauge bool   // scalar gauge vs histogram
}{
	{"/sched/goroutines:goroutines", telemetry.MGoGoroutines, true},
	{"/memory/classes/heap/objects:bytes", telemetry.MGoHeapObjectsBytes, true},
	{"/memory/classes/total:bytes", telemetry.MGoMemTotalBytes, true},
	{"/gc/cycles/total:gc-cycles", telemetry.MGoGCCycles, true},
	{"/gc/pauses:seconds", telemetry.MGoGCPauseSeconds, false},
	{"/sched/latencies:seconds", telemetry.MGoSchedLatSeconds, false},
}

// Pause and latency distributions live between ~100ns and ~1s; the
// registry histogram needs explicit bounds, so use a decade ladder.
var runtimeSecondsBounds = []float64{
	1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1,
}

// sampleEvery is the sampler's cadence.
const sampleEvery = 250 * time.Millisecond

// NewSampler builds a sampler publishing into reg every sampleEvery. Call
// Start to begin and Stop to halt it.
func NewSampler(reg *telemetry.Registry) *Sampler {
	s := &Sampler{
		reg:  reg,
		prev: make(map[string][]uint64),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.samples = make([]metrics.Sample, len(sampledMetrics))
	for i, m := range sampledMetrics {
		s.samples[i].Name = m.key
	}
	return s
}

// Start launches the sampling goroutine. Safe to call once; the first
// tick happens immediately so short-lived processes still export.
func (s *Sampler) Start() {
	s.startOnce.Do(func() {
		go func() {
			defer close(s.done)
			t := time.NewTicker(sampleEvery)
			defer t.Stop()
			s.SampleOnce()
			for {
				select {
				case <-s.stop:
					return
				case <-t.C:
					s.SampleOnce()
				}
			}
		}()
	})
}

// Stop halts the goroutine and waits for it to exit. Safe to call even
// if Start never ran, and more than once.
func (s *Sampler) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.startOnce.Do(func() { close(s.done) })
	<-s.done
}

// SampleOnce reads the runtime metrics and publishes one tick. Exported
// so tests (and one-shot exporters) can sample without the goroutine.
func (s *Sampler) SampleOnce() {
	metrics.Read(s.samples)
	for i, m := range sampledMetrics {
		v := s.samples[i].Value
		switch v.Kind() {
		case metrics.KindUint64:
			s.reg.Gauge(m.name).Set(int64(v.Uint64()))
		case metrics.KindFloat64:
			s.reg.Gauge(m.name).Set(int64(v.Float64()))
		case metrics.KindFloat64Histogram:
			if m.gauge {
				continue
			}
			s.publishHistogram(m.name, v.Float64Histogram())
		}
	}
	s.reg.Counter(telemetry.MGoSamples).Inc()
}

// publishHistogram feeds the since-last-tick growth of a runtime
// histogram into the registry, one ObserveN per grown bucket.
func (s *Sampler) publishHistogram(name string, h *metrics.Float64Histogram) {
	if h == nil {
		return
	}
	tel := s.reg.Histogram(name, runtimeSecondsBounds)
	prev := s.prev[name]
	for i, c := range h.Counts {
		var p uint64
		if i < len(prev) {
			p = prev[i]
		}
		if c <= p {
			continue
		}
		tel.ObserveN(bucketValue(h.Buckets, i), int64(c-p))
	}
	cp := make([]uint64, len(h.Counts))
	copy(cp, h.Counts)
	s.prev[name] = cp
}

// bucketValue picks a representative value for runtime bucket i, whose
// range is [Buckets[i], Buckets[i+1]). Prefer the finite right edge
// (conservative for latency), falling back to the left edge, then 0.
func bucketValue(bounds []float64, i int) float64 {
	if i+1 < len(bounds) && isFinite(bounds[i+1]) {
		return bounds[i+1]
	}
	if i < len(bounds) && isFinite(bounds[i]) {
		return bounds[i]
	}
	return 0
}

func isFinite(f float64) bool {
	return f == f && f < 1e308 && f > -1e308
}
