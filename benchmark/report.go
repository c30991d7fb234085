package main

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Measuring a workload, printing every metric by name with its unit, and
// the files a run leaves in -out: timeline.csv, trace.jsonl, results.json.

// workloadResult is one workload's numbers from one pass of the suite.
type workloadResult struct {
	Workload string   `json:"workload"`
	EndToEnd values   `json:"end_to_end,omitempty"`
	Layers   values   `json:"per_layer,omitempty"`
	Regime   []string `json:"regime_violations,omitempty"`
	Errors   []string `json:"errors,omitempty"`

	Loop  *loopRun  `json:"-"`
	Trace *traceRun `json:"-"`
}

func (r *workloadResult) correct() bool {
	return r.Loop.Failed == 0 && len(r.Regime) == 0
}

// traceBudget is the wall time the traced layer pass may take per
// workload; it replays as many of the workload's first requests as fit.
const traceBudget = 3 * time.Second

// measure runs one workload. Without trace it sets up setupRepeats times,
// times the last server and runs the quality pass; with trace it sets up
// once and follows the loopback run with the in-process traced pass, so
// the two never share the CPUs.
func (o *options) measure(w workloadID, trace bool) (*workloadResult, error) {
	setups := setupRepeats
	if trace {
		setups = 1
	}
	loop, err := loopback(o.bin, w, o.seed, o.seconds, setups, !trace)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workloads[w].Name, err)
	}
	res := &workloadResult{Workload: workloads[w].Name, Loop: loop, Errors: loop.Errors}
	res.Layers = loop.layers()
	res.Regime = loop.regimeCheck(res.Layers)
	if !trace {
		res.EndToEnd = loop.endToEnd()
		return res, nil
	}
	if err := o.traceInto(res, w); err != nil {
		return nil, err
	}
	return res, nil
}

// traceInto runs the traced layer pass and merges its numbers.
func (o *options) traceInto(res *workloadResult, w workloadID) error {
	// main is pinned to its OS thread (see main); the pass hands work
	// between goroutines (the simulator runs one per lambda), which costs
	// a thread switch each time when one side is pinned. Run it unpinned.
	var tr *traceRun
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		tr, err = tracedPass(w, o.seed, traceBudget)
	}()
	<-done
	if err != nil {
		return fmt.Errorf("%s: traced pass: %w", workloads[w].Name, err)
	}
	res.Trace = tr
	for name, v := range tr.layers() {
		res.Layers[name] = v
	}
	return nil
}

// suite runs every workload end to end, then every traced pass, prints
// the report and writes the output files. With -aa it repeats that and
// prints the spread.
func (o *options) suite() error {
	passes := o.aa
	if passes < 1 {
		passes = 1
	}
	var all [][]*workloadResult
	for p := 0; p < passes; p++ {
		var pass []*workloadResult
		for w := workloadID(0); w < numWorkloads; w++ {
			fmt.Fprintf(os.Stderr, "pass %d/%d: %s\n", p+1, passes, workloads[w].Name)
			res, err := o.measure(w, false)
			if err != nil {
				return err
			}
			pass = append(pass, res)
		}
		for w := workloadID(0); w < numWorkloads; w++ {
			fmt.Fprintf(os.Stderr, "pass %d/%d: %s traced\n", p+1, passes, workloads[w].Name)
			if err := o.traceInto(pass[w], w); err != nil {
				return err
			}
		}
		all = append(all, pass)
	}
	last := all[len(all)-1]
	for _, res := range last {
		res.print(os.Stdout)
	}
	if err := writeFiles(o.out, last); err != nil {
		return err
	}
	file := resultsFile{Host: hostFacts(), Seed: o.seed, Seconds: o.seconds, Passes: all}
	if err := writeJSON(filepath.Join(o.out, "results.json"), file); err != nil {
		return err
	}
	if passes > 1 {
		printSpread(os.Stdout, all)
	}
	if o.against != "" {
		if err := compareAgainst(os.Stdout, o.against, file); err != nil {
			return err
		}
	}
	for _, pass := range all {
		for _, res := range pass {
			if !res.correct() {
				return fmt.Errorf("%s: %d of %d requests failed; regime: %v; first errors: %v",
					res.Workload, res.Loop.Failed, res.Loop.Attempted, res.Regime, res.Errors)
			}
		}
	}
	return nil
}

// print writes every metric the result holds, by name, with its unit.
func (r *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %d attempted, %d failed; %d blocks of %d in %d windows; %d samples pooled\n",
		r.Workload, r.Loop.Attempted, r.Loop.Failed, r.Loop.Span.Blocks,
		workloads[r.Loop.Workload].Block, len(r.Loop.Span.Windows), len(r.Loop.spanSamples()))
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
	for _, v := range r.Regime {
		fmt.Fprintf(w, "   out of regime: %s\n", v)
	}
	if r.EndToEnd != nil {
		noise := r.Loop.windowNoise()
		for _, d := range endToEndMetrics {
			fmt.Fprintf(w, "   %-40s %14.6g %-6s", d.Name, r.EndToEnd[d.Name], d.Unit)
			if n, ok := noise[d.Name]; ok {
				fmt.Fprintf(w, "  window IQR %.1f%%", 100*n)
			}
			fmt.Fprintln(w)
		}
	}
	for _, d := range perLayerMetrics {
		if v, ok := r.Layers[d.Name]; ok {
			fmt.Fprintf(w, "   %-40s %14.6g %-6s [%s] moves: %s\n", d.Name, v, d.Unit, d.Source, d.Moves)
		}
	}
}

// windowNoise is each windowed metric's spread across the measured
// windows: IQR over median.
func (run *loopRun) windowNoise() map[string]float64 {
	var p50, p90, cpu []float64
	for k := range run.Span.Windows {
		w := &run.Span.Windows[k]
		p50 = append(p50, w.latencyMs(0.5))
		p90 = append(p90, w.latencyMs(0.9))
		cpu = append(cpu, w.cpuMsPerReq())
	}
	return map[string]float64{
		"throughput_rps":        iqrShare(run.windowRates()),
		"latency_p50_ms":        iqrShare(p50),
		"latency_p90_ms":        iqrShare(p90),
		"server_cpu_ms_per_req": iqrShare(cpu),
	}
}

// writeFiles writes timeline.csv and trace.jsonl for the given results.
func writeFiles(out string, results []*workloadResult) error {
	f, err := os.Create(filepath.Join(out, "timeline.csv"))
	if err != nil {
		return err
	}
	cw := csv.NewWriter(f)
	_ = cw.Write([]string{"workload", "window", "start_s", "end_s", "requests", "rps", "p50_ms", "p90_ms", "cpu_ms_per_req", "heap_mb", "gc_cycles"})
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	for _, r := range results {
		for k := range r.Loop.Span.Windows {
			w := &r.Loop.Span.Windows[k]
			_ = cw.Write([]string{r.Workload, strconv.Itoa(k + 1), ff(w.Start.Seconds()), ff(w.End.Seconds()),
				strconv.Itoa(w.Requests), ff(w.rps()), ff(w.latencyMs(0.5)), ff(w.latencyMs(0.9)),
				ff(w.cpuMsPerReq()), ff(w.HeapMB), ff(w.GCCycles)})
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	f, err = os.Create(filepath.Join(out, "trace.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, r := range results {
		if r.Trace == nil {
			continue
		}
		for k := range r.Trace.Spans {
			if err := enc.Encode(&r.Trace.Spans[k]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// write leaves one workload's files in out (the single-workload mode).
func (r *workloadResult) write(out string) error {
	return writeFiles(out, []*workloadResult{r})
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// host is what a result was measured on. Results from hosts with a
// different CPU count are not comparable and are refused.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Clients    int    `json:"clients"`
}

func hostFacts() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Clients: clients()}
	if out, err := exec.Command("uname", "-sr").Output(); err == nil {
		h.Kernel = strings.TrimSpace(string(out))
	}
	return h
}

// resultsFile is results.json: every pass of one invocation.
type resultsFile struct {
	Host    host                `json:"host"`
	Seed    int64               `json:"seed"`
	Seconds int                 `json:"seconds"`
	Passes  [][]*workloadResult `json:"passes"`
}

// medians reduces the passes to one value per workload and metric.
func (f *resultsFile) medians() map[string]values {
	out := map[string]values{}
	collect := map[string]map[string][]float64{}
	for _, pass := range f.Passes {
		for _, r := range pass {
			if collect[r.Workload] == nil {
				collect[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.EndToEnd {
				collect[r.Workload][name] = append(collect[r.Workload][name], v)
			}
		}
	}
	for w, m := range collect {
		out[w] = values{}
		for name, vs := range m {
			out[w][name] = median(vs)
		}
	}
	return out
}

// printSpread prints, per end-to-end metric and workload, the largest
// relative difference between any two passes beside the metric's bound.
func printSpread(w io.Writer, all [][]*workloadResult) {
	fmt.Fprintf(w, "== A/A: %d passes of the same build; max pairwise relative difference vs bound\n", len(all))
	for wl := range all[0] {
		for _, d := range endToEndMetrics {
			lo, hi := all[0][wl].EndToEnd[d.Name], all[0][wl].EndToEnd[d.Name]
			for _, pass := range all[1:] {
				v := pass[wl].EndToEnd[d.Name]
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			diff := ratio(hi-lo, lo)
			verdict := "ok"
			if diff > d.Bound {
				verdict = "OVER"
			}
			fmt.Fprintf(w, "   %-20s %-24s %8.2f%%  bound %5.1f%%  %s\n", all[0][wl].Workload, d.Name, 100*diff, 100*d.Bound, verdict)
		}
	}
}

// compareAgainst prints how far this invocation's medians sit from an
// earlier results.json, in each metric's worse direction, beside the
// bound. It refuses files from a host with a different CPU count.
func compareAgainst(w io.Writer, path string, now resultsFile) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var then resultsFile
	if err := json.Unmarshal(b, &then); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if then.Host.NProc != now.Host.NProc {
		return fmt.Errorf("%s was measured on %d CPUs, this host has %d: not comparable", path, then.Host.NProc, now.Host.NProc)
	}
	a, c := then.medians(), now.medians()
	names := make([]string, 0, len(c))
	for name := range c {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "== against %s: change in the worse direction vs bound\n", path)
	for _, wl := range names {
		for _, d := range endToEndMetrics {
			old, cur := a[wl][d.Name], c[wl][d.Name]
			worse := ratio(cur-old, old)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict = "WORSE"
			}
			fmt.Fprintf(w, "   %-20s %-24s %12.6g -> %12.6g  %+7.2f%%  bound %5.1f%%  %s\n",
				wl, d.Name, old, cur, 100*worse, 100*d.Bound, verdict)
		}
	}
	return nil
}
