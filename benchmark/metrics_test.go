package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestQuantiles(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := quantile(v, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty input is not 0")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v", got)
	}
	// Quartiles of 1..5 are 2 and 4.
	if got := iqrShare([]float64{5, 4, 3, 2, 1}); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("iqrShare = %v, want 2/3", got)
	}
	if got := geomean([]float64{4, 1}); math.Abs(got-2) > 1e-12 {
		t.Errorf("geomean = %v, want 2", got)
	}
}

// BENCHMARK.json, which the driver reads, and the catalogue the program
// prints from must say the same thing, within the driver's limits.
func TestBenchmarkJSONMatchesTheCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil || len(keys) != 6 {
		t.Errorf("%d top-level keys, want exactly 6", len(keys))
	}
	if len(b) > 64<<10 {
		t.Errorf("file is %d bytes, over 64 KiB", len(b))
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	// 4 + 22 runs per workload, with set-up and two builds, in 3420 s.
	if runs := 4 + 22*len(file.Workloads); float64(runs)*1.2*float64(file.RunSeconds) > 3420*0.75 {
		t.Errorf("%d runs of %d s leave no room for set-up and builds", runs, file.RunSeconds)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", file.Paths)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the driver's limits", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	var gated []workloadInfo
	for _, w := range workloads {
		if w.Gated {
			gated = append(gated, w)
		}
	}
	if len(file.Workloads) != len(gated) {
		t.Fatalf("%d workloads, want the %d gated ones", len(file.Workloads), len(gated))
	}
	for k, w := range file.Workloads {
		unique(w.Name)
		if w.Name != gated[k].Name || w.Why != gated[k].Why {
			t.Errorf("workload %d is %q, the program's is %q", k, w.Name, gated[k].Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, the catalogue has %d", kind, len(got), len(want))
		}
		for k, m := range got {
			unique(m.Name)
			d := want[k]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: %+v, the catalogue has %s %s %s", kind, k, m, d.Name, d.Unit, d.Better)
			}
			if !unit.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
				t.Errorf("%s: unit %q or direction %q is outside the driver's limits", m.Name, m.Unit, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound %v, the catalogue has %v", m.Name, m.Bound, d.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has a bound", m.Name)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEndMetrics, true)
	check("per_layer", file.PerLayer, perLayerMetrics, false)
	if len(file.PerLayer) > 128 || len(file.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(file.EndToEnd), len(file.PerLayer))
	}
	setup := file.EndToEnd[len(file.EndToEnd)-1]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("last end-to-end metric is %+v, want setup_s", setup)
	}
	for _, m := range file.EndToEnd {
		if *m.Bound > *setup.Bound {
			t.Errorf("%s has a wider bound than setup_s", m.Name)
		}
	}
}

// syntheticRun is a run of n requests issued every step, request i
// taking latency(i), with the server burning cpuShare of wall time.
func syntheticRun(w workloadID, seconds, n int, step time.Duration, latency func(i int) time.Duration) *loopRun {
	run := &loopRun{Workload: w, Seconds: seconds}
	for i := 0; i < n; i++ {
		run.Samples = append(run.Samples, sample{Index: i, OK: true, Start: time.Duration(i) * step, Total: latency(i), FirstByte: latency(i) / 2})
	}
	run.Attempted = n
	for at := time.Duration(0); at <= time.Duration(n)*step; at += 20 * time.Millisecond {
		run.Observed = append(run.Observed, observation{At: at, CPU: at / 2})
	}
	return run
}

func TestSpanIsWholeBlocksAfterTheRamp(t *testing.T) {
	// template_hit: blocks of 16. 10 s measured, 2 s ramp; a request every
	// 10 ms, so a block every 160 ms and 1200 requests in 12 s.
	run := syntheticRun(templateHit, 10, 1200, 10*time.Millisecond, func(i int) time.Duration {
		return time.Duration(1+i%16) * time.Millisecond
	})
	if err := run.cutSpan(); err != nil {
		t.Fatal(err)
	}
	sp := run.Span
	// The ramp ends at 2 s = request 200; the first block starting at or
	// after it is block 13 (request 208). 74 blocks were followed by
	// another block's first request; 61 remain, cut into 5 windows of 12
	// or 13.
	if sp.FirstBlock != 13 || sp.Blocks != 61 || len(sp.Windows) != 5 {
		t.Fatalf("span = first block %d, %d blocks, %d windows", sp.FirstBlock, sp.Blocks, len(sp.Windows))
	}
	for k, w := range sp.Windows {
		blocks := 12
		if k == 4 {
			blocks = 13
		}
		if w.Requests != blocks*16 || w.Validated != w.Requests {
			t.Errorf("window %d: %d requests, %d validated", k, w.Requests, w.Validated)
		}
		if got := w.End - w.Start; got != time.Duration(blocks)*160*time.Millisecond {
			t.Errorf("window %d spans %v", k, got)
		}
		if math.Abs(w.rps()-100) > 1e-9 {
			t.Errorf("window %d: %v req/s, want 100", k, w.rps())
		}
		// The server burns half of wall time.
		if math.Abs(w.CPU.Seconds()-(w.End-w.Start).Seconds()/2) > 1e-3 {
			t.Errorf("window %d: CPU %v", k, w.CPU)
		}
	}
	v := run.endToEnd()
	if math.Abs(v["throughput_rps"]-100) > 1e-9 || math.Abs(v["latency_p50_ms"]-8.5) > 1e-9 {
		t.Errorf("throughput %v, p50 %v", v["throughput_rps"], v["latency_p50_ms"])
	}
	if math.Abs(v["server_cpu_ms_per_req"]-5) > 1e-2 {
		t.Errorf("cpu per request %v ms, want 5", v["server_cpu_ms_per_req"])
	}
	if got := len(run.spanSamples()); got != 61*16 {
		t.Errorf("%d samples pooled, want %d", got, 61*16)
	}
}

func TestSpanNeedsOneWholeBlock(t *testing.T) {
	run := syntheticRun(bindingConstraint, 10, 40, 100*time.Millisecond, func(int) time.Duration { return time.Millisecond })
	if err := run.cutSpan(); err == nil {
		t.Error("40 requests in blocks of 32 with a 2 s ramp made a span")
	}
}

func TestFailuresLeaveTheLatencyPool(t *testing.T) {
	run := syntheticRun(templateHit, 10, 1200, 10*time.Millisecond, func(int) time.Duration { return time.Millisecond })
	for i := 300; i < 310; i++ {
		run.Samples[i].OK = false
		run.Failed++
	}
	if err := run.cutSpan(); err != nil {
		t.Fatal(err)
	}
	if got := len(run.spanSamples()); got != 61*16-10 {
		t.Errorf("%d samples pooled, want %d", got, 61*16-10)
	}
	if run.Span.Windows[0].Validated != 12*16-10 {
		t.Errorf("first window validated %d", run.Span.Windows[0].Validated)
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	tr := &traceRun{Requests: 1, Spans: []spanRecord{
		{TraceID: "w/0", SpanID: 1, Name: "request", StartNs: 0, EndNs: 100_000},
		{TraceID: "w/0", SpanID: 2, ParentID: 1, Name: "optimizer.plan", StartNs: 10_000, EndNs: 90_000, Allocs: 53},
		{TraceID: "w/0", SpanID: 3, Name: "plan.decomposed", StartNs: 100_000, EndNs: 200_000},
		{TraceID: "w/0", SpanID: 4, ParentID: 3, Name: "optimizer.template.get", StartNs: 100_000, EndNs: 130_000},
		{TraceID: "w/0", SpanID: 5, ParentID: 4, Name: "dag.build_time_mode", StartNs: 105_000, EndNs: 125_000, Allocs: 7},
		{TraceID: "w/0", SpanID: 6, ParentID: 3, Name: "graph.algorithm1", StartNs: 130_000, EndNs: 170_000},
	}}
	v := tr.layers()
	for name, want := range map[string]float64{
		"optimizer.plan_us":      80,
		"optimizer.plan_allocs":  53,
		"dag.build_time_mode_us": 20,
		"dag.build_allocs":       7,
		"graph.algorithm1_us":    40,
		// The decomposition's parts are template.get (30, its build
		// inside it) and algorithm1 (40): 1 - 70/80.
		"optimizer.unattributed_share": 0.125,
		"graph.csp_us":                 0,
	} {
		if math.Abs(v[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, v[name], want)
		}
	}
}

func TestRegimeCheck(t *testing.T) {
	run := &loopRun{Workload: coldShapes}
	good := values{"server.admission.rejects": 0, "server.respcache.hit_ratio": 0,
		"optimizer.template.builds_per_kreq": 1000, "optimizer.template.evictions_per_kreq": 1000, "optimizer.template.waits": 0}
	if bad := run.regimeCheck(good); len(bad) != 0 {
		t.Errorf("in regime, but: %v", bad)
	}
	good["optimizer.template.builds_per_kreq"] = 990
	good["server.admission.rejects"] = 2
	if bad := run.regimeCheck(good); len(bad) != 2 {
		t.Errorf("two violations, got: %v", bad)
	}
	if bad := (&loopRun{Workload: respHit}).regimeCheck(values{"server.respcache.hit_ratio": 0.999}); len(bad) != 1 {
		t.Errorf("resp_hit with a miss: %v", bad)
	}
	if bad := (&loopRun{Workload: templateHit}).regimeCheck(values{"optimizer.template.hit_ratio": 1}); len(bad) != 0 {
		t.Errorf("template_hit in regime: %v", bad)
	}
}
