package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilNoOp exercises every method on nil receivers: the disabled
// path must never panic and never allocate registry state.
func TestNilNoOp(t *testing.T) {
	var reg *Registry
	reg.Counter("c").Add(3)
	reg.Counter("c").Inc()
	reg.Gauge("g").Set(7)
	reg.Gauge("g").SetMax(9)
	reg.Gauge("g").Add(-1)
	reg.Histogram("h", nil).Observe(1.5)
	sp := reg.StartSpan("plan")
	sp.Child("solve").End()
	sp.SetVirtual(0, time.Second)
	sp.End()
	reg.RecordVirtual("run", 0, time.Second)
	reg.SetSpanCap(4)

	if v := reg.Counter("c").Value(); v != 0 {
		t.Errorf("nil counter value = %d, want 0", v)
	}
	if v := reg.Gauge("g").Value(); v != 0 {
		t.Errorf("nil gauge value = %d, want 0", v)
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Spans) != 0 {
		t.Errorf("nil snapshot not empty: %+v", snap)
	}

	ctx := context.Background()
	if got := NewContext(ctx, nil); got != ctx {
		t.Error("NewContext(nil) should return ctx unchanged")
	}
	if got := FromContext(ctx); got != nil {
		t.Errorf("FromContext(bare ctx) = %v, want nil", got)
	}
}

func TestContextRoundTrip(t *testing.T) {
	reg := New()
	ctx := NewContext(context.Background(), reg)
	if got := FromContext(ctx); got != reg {
		t.Fatalf("FromContext = %p, want %p", got, reg)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	reg := New()
	reg.Counter("c").Add(5)
	reg.Counter("c").Inc()
	if v := reg.Counter("c").Value(); v != 6 {
		t.Errorf("counter = %d, want 6", v)
	}

	g := reg.Gauge("g")
	g.Set(10)
	g.SetMax(4) // lower: ignored
	if v := g.Value(); v != 10 {
		t.Errorf("gauge after SetMax(4) = %d, want 10", v)
	}
	g.SetMax(15)
	if v := g.Value(); v != 15 {
		t.Errorf("gauge after SetMax(15) = %d, want 15", v)
	}

	h := reg.Histogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	snap := reg.Snapshot()
	hs := snap.Histograms["h"]
	want := []int64{1, 1, 1, 1}
	if len(hs.Counts) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(hs.Counts), len(want))
	}
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Errorf("bucket[%d] = %d, want %d", i, hs.Counts[i], w)
		}
	}
	if hs.Count != 4 || hs.Sum != 555.5 {
		t.Errorf("count/sum = %d/%v, want 4/555.5", hs.Count, hs.Sum)
	}
}

func TestSpanPathsAndVirtualTime(t *testing.T) {
	reg := New()
	root := reg.StartSpan("plan")
	child := root.Child("solve").Child("csp")
	child.End()
	root.End()
	reg.RecordVirtual("run/map", 2*time.Second, 5*time.Second)

	snap := reg.Snapshot()
	if n := len(snap.Spans); n != 3 {
		t.Fatalf("span count = %d, want 3", n)
	}
	if snap.Spans[0].Path != "plan/solve/csp" {
		t.Errorf("first completed span = %q, want plan/solve/csp", snap.Spans[0].Path)
	}
	under := snap.SpansUnder("plan")
	if len(under) != 2 {
		t.Errorf("SpansUnder(plan) = %d spans, want 2", len(under))
	}
	virt := snap.Spans[2]
	if !virt.HasVirtual || virt.Virt != 3*time.Second || virt.VirtStart != 2*time.Second {
		t.Errorf("virtual span = %+v, want 2s..5s", virt)
	}
	// Seq orders completions.
	for i, sp := range snap.Spans {
		if sp.Seq != int64(i+1) {
			t.Errorf("span[%d].Seq = %d, want %d", i, sp.Seq, i+1)
		}
	}
}

func TestSpanCapDrops(t *testing.T) {
	reg := New()
	reg.SetSpanCap(2)
	for i := 0; i < 5; i++ {
		reg.StartSpan("s").End()
	}
	snap := reg.Snapshot()
	if len(snap.Spans) != 2 {
		t.Errorf("stored spans = %d, want 2", len(snap.Spans))
	}
	if snap.SpanDrops != 3 {
		t.Errorf("span drops = %d, want 3", snap.SpanDrops)
	}
}

// TestConcurrentHammer drives one registry from many goroutines — every
// metric kind plus spans — while other goroutines snapshot and export
// it. Run under -race, this is the subsystem's thread-safety proof; the
// final counts also verify no update was lost.
func TestConcurrentHammer(t *testing.T) {
	reg := New()
	reg.SetSpanCap(64)
	const goroutines = 16
	const perG = 500

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				reg.Counter("hits").Inc()
				reg.Counter("bytes").Add(8)
				reg.Gauge("depth").SetMax(int64(id*perG + i))
				reg.Histogram("lat", DurationBuckets).Observe(float64(i) * 1e-4)
				sp := reg.StartSpan("hammer")
				sp.Child("inner").End()
				sp.End()
			}
		}(g)
	}
	// Concurrent readers: snapshots and exports must not race with the
	// writers above.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := reg.Snapshot()
				var buf bytes.Buffer
				if err := snap.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	snap := reg.Snapshot()
	if got := snap.Counter("hits"); got != goroutines*perG {
		t.Errorf("hits = %d, want %d", got, goroutines*perG)
	}
	if got := snap.Counter("bytes"); got != goroutines*perG*8 {
		t.Errorf("bytes = %d, want %d", got, goroutines*perG*8)
	}
	if got := snap.Gauges["depth"]; got != goroutines*perG-1 {
		t.Errorf("depth max = %d, want %d", got, goroutines*perG-1)
	}
	if got := snap.Histograms["lat"].Count; got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
	if got := len(snap.Spans) + int(snap.SpanDrops); got != goroutines*perG*2 {
		t.Errorf("spans stored+dropped = %d, want %d", got, goroutines*perG*2)
	}
}

// TestWritePrometheusParseBack renders the exposition format and parses
// it back line by line: every sample line must be "name value" (with an
// optional {le=...} label), histogram buckets must be cumulative, and
// the counter values must round-trip.
func TestWritePrometheusParseBack(t *testing.T) {
	reg := New()
	reg.Counter("astra_test_total").Add(42)
	reg.Gauge("astra_test_peak").Set(7)
	h := reg.Histogram("astra_test_seconds", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(99)

	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.HasSuffix(text, "\n") {
		t.Error("exposition must end with a newline")
	}

	values := map[string]float64{}
	var bucketCum []float64
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		if strings.HasPrefix(name, "astra_test_seconds_bucket{") {
			bucketCum = append(bucketCum, v)
			continue
		}
		values[name] = v
	}
	if values["astra_test_total"] != 42 {
		t.Errorf("counter round-trip = %v, want 42", values["astra_test_total"])
	}
	if values["astra_test_peak"] != 7 {
		t.Errorf("gauge round-trip = %v, want 7", values["astra_test_peak"])
	}
	if values["astra_test_seconds_count"] != 3 || values["astra_test_seconds_sum"] != 101 {
		t.Errorf("histogram sum/count = %v/%v, want 101/3",
			values["astra_test_seconds_sum"], values["astra_test_seconds_count"])
	}
	wantCum := []float64{1, 2, 3} // le=1, le=2, le=+Inf
	if len(bucketCum) != len(wantCum) {
		t.Fatalf("bucket lines = %d, want %d", len(bucketCum), len(wantCum))
	}
	for i, w := range wantCum {
		if bucketCum[i] != w {
			t.Errorf("cumulative bucket[%d] = %v, want %v", i, bucketCum[i], w)
		}
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	reg := New()
	reg.Counter("c").Add(3)
	reg.Gauge("g").Set(-2)
	reg.Histogram("h", []float64{1}).Observe(0.5)
	reg.StartSpan("plan").End()

	var buf bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	if back.Counters["c"] != 3 || back.Gauges["g"] != -2 {
		t.Errorf("scalar round-trip = %+v", back)
	}
	if len(back.Spans) != 1 || back.Spans[0].Path != "plan" {
		t.Errorf("span round-trip = %+v", back.Spans)
	}
	if back.Histograms["h"].Count != 1 {
		t.Errorf("histogram round-trip = %+v", back.Histograms["h"])
	}
}

// TestWritePrometheusAlwaysEmitsInfBucket pins the exposition invariant
// that every histogram carries a le="+Inf" bucket equal to _count, even
// when the snapshot's Counts slice is shorter than Bounds+1 (a snapshot
// assembled by hand or truncated across a JSON hop), or empty outright.
func TestWritePrometheusAlwaysEmitsInfBucket(t *testing.T) {
	snap := Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Histograms: map[string]HistogramSnapshot{
			"truncated": {Bounds: []float64{1, 2}, Counts: []int64{3}, Sum: 3, Count: 3},
			"empty":     {},
		},
	}
	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`truncated_bucket{le="1"} 3`,
		`truncated_bucket{le="2"} 3`,
		`truncated_bucket{le="+Inf"} 3`,
		`empty_bucket{le="+Inf"} 0`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestWritePrometheusNonFiniteFloats checks the 0.0.4 spellings of the
// special float values: NaN, +Inf and -Inf (never Go's "+Inf"-via-%q or
// "NaN" quoted forms).
func TestWritePrometheusNonFiniteFloats(t *testing.T) {
	snap := Snapshot{
		Histograms: map[string]HistogramSnapshot{
			"h": {Bounds: []float64{math.Inf(-1), 1}, Counts: []int64{1, 0, 0},
				Sum: math.NaN(), Count: 1},
		},
	}
	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`h_bucket{le="-Inf"} 1`,
		`h_bucket{le="+Inf"} 1`,
		"h_sum NaN",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestWritePrometheusLabeledSeries exercises LabelSeries end to end: one
// TYPE comment per family, label values escaped per the text format
// (backslash, quote, newline), and histogram suffixes spliced before the
// label set with le merged in.
func TestWritePrometheusLabeledSeries(t *testing.T) {
	reg := New()
	reg.Counter(LabelSeries("astra_obs_http_requests_total", "path", "/metrics")).Add(2)
	reg.Counter(LabelSeries("astra_obs_http_requests_total", "path", "/events")).Add(1)
	reg.Counter(LabelSeries("weird_total", "v", "a\\b\"c\nd")).Inc()
	reg.Histogram(LabelSeries("lat_seconds", "op", "get"), []float64{1}).Observe(0.5)

	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if got := strings.Count(text, "# TYPE astra_obs_http_requests_total counter\n"); got != 1 {
		t.Errorf("family TYPE lines = %d, want 1\n%s", got, text)
	}
	for _, want := range []string{
		`astra_obs_http_requests_total{path="/metrics"} 2`,
		`astra_obs_http_requests_total{path="/events"} 1`,
		`weird_total{v="a\\b\"c\nd"} 1`,
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{op="get",le="1"} 1`,
		`lat_seconds_bucket{op="get",le="+Inf"} 1`,
		`lat_seconds_sum{op="get"} 0.5`,
		`lat_seconds_count{op="get"} 1`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Escaped newlines must keep the exposition line-oriented: every line
	// is a comment or ends in a parseable float.
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
	}
}

func TestEscapeLabelValue(t *testing.T) {
	if got := EscapeLabelValue("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Errorf("EscapeLabelValue = %q", got)
	}
	if got := LabelSeries("m"); got != "m" {
		t.Errorf("LabelSeries no labels = %q", got)
	}
	if got := LabelSeries("m", "a", "1", "b", "2"); got != `m{a="1",b="2"}` {
		t.Errorf("LabelSeries = %q", got)
	}
}

func TestObserveN(t *testing.T) {
	reg := New()
	h := reg.Histogram("h", []float64{1, 10})
	h.ObserveN(0.5, 3)
	h.ObserveN(5, 2)
	h.ObserveN(5, 0)  // no-op
	h.ObserveN(5, -4) // no-op
	var nilH *Histogram
	nilH.ObserveN(1, 1) // no-op
	hs := reg.Snapshot().Histograms["h"]
	if hs.Count != 5 || hs.Sum != 0.5*3+5*2 {
		t.Fatalf("count/sum = %d/%v, want 5/11.5", hs.Count, hs.Sum)
	}
	if hs.Counts[0] != 3 || hs.Counts[1] != 2 || hs.Counts[2] != 0 {
		t.Fatalf("bucket counts = %v", hs.Counts)
	}
}

// TestScope pins what a per-request scope promises: its books start at
// zero, every write reaches the parent's series exactly once, a SetMax
// through a scope never lowers the parent, reading the scope's books
// creates nothing, and histograms and spans are the parent's.
func TestScope(t *testing.T) {
	if sc, read := (*Registry)(nil).Scope(); sc != nil || read("c") != 0 {
		t.Fatalf("nil registry: scope %v, read %d; want nil, 0", sc, read("c"))
	}

	reg := New()
	reg.Counter("c").Add(10)
	reg.Gauge("set").Set(10)
	reg.Gauge("peak").SetMax(10)

	sc, read := reg.Scope()
	if got := read("c") + read("set") + read("peak"); got != 0 {
		t.Fatalf("fresh scope reads %d, want 0", got)
	}
	sc.Counter("c").Add(3)
	sc.Counter("c").Inc()
	sc.Gauge("set").Set(2)
	sc.Gauge("peak").SetMax(4)
	sc.Gauge("depth").Add(5)
	sc.Gauge("depth").Add(-2)
	check := func(name string, scope, parent int64) {
		t.Helper()
		snap := reg.Snapshot()
		if got := snap.Counters[name] + snap.Gauges[name]; read(name) != scope || got != parent {
			t.Errorf("%s: scope %d, parent %d; want %d, %d", name, read(name), got, scope, parent)
		}
	}
	check("c", 4, 14)
	check("set", 2, 2)
	check("peak", 4, 10)
	check("depth", 3, 3)
	sc.Gauge("peak").SetMax(12)
	check("peak", 12, 12)

	// A second scope starts at zero again and adds to the same parent.
	sc2, read2 := reg.Scope()
	sc2.Counter("c").Add(6)
	if read2("c") != 6 || read("c") != 4 || reg.Counter("c").Value() != 20 {
		t.Errorf("second scope %d, first %d, parent %d; want 6, 4, 20",
			read2("c"), read("c"), reg.Counter("c").Value())
	}

	// Reading a series the scope never touched creates it nowhere; looking
	// one up creates it on the parent too, as a direct lookup would.
	if read("untouched") != 0 {
		t.Error("untouched series read non-zero")
	}
	sc.Counter("looked_up")
	snap := reg.Snapshot()
	if _, ok := snap.Counters["untouched"]; ok {
		t.Error("reading the scope's books created a series on the parent")
	}
	if _, ok := snap.Counters["looked_up"]; !ok {
		t.Error("a counter looked up through the scope is missing from the parent")
	}
	if own := sc.Snapshot(); own.Counters["c"] != 4 || len(own.Spans) != 0 || len(own.Histograms) != 0 {
		t.Errorf("scope snapshot = %+v, want its own counters and nothing of the parent's", own)
	}

	sc.Histogram("h", SizeBuckets).Observe(3)
	sp := sc.StartSpan("plan")
	sp.Child("solve").End()
	sp.End()
	sc.RecordVirtual("run", 0, time.Second)
	snap = reg.Snapshot()
	if snap.Histograms["h"].Count != 1 {
		t.Errorf("histogram observed through the scope: parent count %d, want 1", snap.Histograms["h"].Count)
	}
	if len(snap.Spans) != 3 || len(snap.SpansUnder("plan")) != 2 {
		t.Errorf("parent holds %d spans (%d under plan), want 3 (2)", len(snap.Spans), len(snap.SpansUnder("plan")))
	}
}

// TestScopeHammer runs eight scopes over one parent under contention:
// each scope must end with exactly its own writes, the parent with the
// sum and the highest peak. Under -race this is the tee's safety gate.
func TestScopeHammer(t *testing.T) {
	reg := New()
	const scopes, writes = 8, 2000
	var wg sync.WaitGroup
	for s := 1; s <= scopes; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sc, read := reg.Scope()
			var inner sync.WaitGroup
			for w := 0; w < 2; w++ { // a plan's pool workers share its scope
				inner.Add(1)
				go func() {
					defer inner.Done()
					for i := 0; i < writes; i++ {
						sc.Counter("work").Add(int64(s))
						sc.Gauge("peak").SetMax(int64(s * i))
						sc.StartSpan("plan").End()
					}
				}()
			}
			inner.Wait()
			if got, want := read("work"), int64(2*writes*s); got != want {
				t.Errorf("scope %d booked %d, want %d", s, got, want)
			}
			if got, want := read("peak"), int64(s*(writes-1)); got != want {
				t.Errorf("scope %d peak %d, want %d", s, got, want)
			}
		}(s)
	}
	wg.Wait()
	if got, want := reg.Counter("work").Value(), int64(2*writes*scopes*(scopes+1)/2); got != want {
		t.Errorf("parent total %d, want %d", got, want)
	}
	if got, want := reg.Gauge("peak").Value(), int64(scopes*(writes-1)); got != want {
		t.Errorf("parent peak %d, want %d", got, want)
	}
	snap := reg.Snapshot()
	if got := int64(len(snap.Spans)) + snap.SpanDrops; got != 2*writes*scopes {
		t.Errorf("parent saw %d spans, want %d", got, 2*writes*scopes)
	}
}
