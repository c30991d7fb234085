// Command benchmark is the repository's benchmark: six traffic regimes
// driven through a loopback astra-server built from this checkout, a
// plan-quality ratio against exact label-setting, and an outside-in
// per-layer trace. See README.md in this directory.
//
//	bash benchmark/run.sh --workload resp_hit --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -seed 1            # the whole suite, with report
//	bash benchmark/run.sh -seed 1 -aa 3      # the suite three times, A/A spread
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// setupRepeats is how many times a --trace 0 run sets up, so that
// setup_s is a median rather than one sample.
const setupRepeats = 5

func main() {
	// The server child carries a parent-death signal, which Linux ties to
	// the thread that forked it; pinning main to its thread keeps that
	// thread alive for as long as the benchmark is.
	runtime.LockOSThread()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	aa       int
	out      string
	against  string

	root string
	bin  string
}

func run() error {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print one JSON result line (default: the whole suite)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per workload, after a ramp of a fifth of that")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	flag.IntVar(&o.aa, "aa", 0, "run the suite this many times on one build and print the spread per metric")
	flag.StringVar(&o.out, "out", "", "directory for trace.jsonl, timeline.csv and results.json (default benchmark/out)")
	flag.StringVar(&o.against, "against", "", "a results.json from an earlier invocation to compare the suite's medians with")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	var err error
	if o.root, err = repoRoot(); err != nil {
		return err
	}
	if o.out == "" {
		o.out = filepath.Join(o.root, "benchmark", "out")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	if o.bin, err = buildServer(o.root, filepath.Join(o.root, ".bench_build", "bin")); err != nil {
		return err
	}
	if o.workload != "" {
		return o.single()
	}
	return o.suite()
}

// result is the one JSON line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// single runs one workload once and prints its result line last.
func (o *options) single() error {
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	res, err := o.measure(w, o.trace != 0)
	if err != nil {
		return err
	}
	if err := res.write(o.out); err != nil {
		return err
	}
	res.print(os.Stdout)
	defs, v := endToEndMetrics, res.EndToEnd
	if o.trace != 0 {
		defs, v = perLayerMetrics, res.Layers
	}
	line := result{Correct: res.correct(), Attempted: res.Loop.Attempted, Failed: res.Loop.Failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{Value: v[d.Name], Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	if !line.Correct {
		return fmt.Errorf("%s: %d of %d requests failed; regime: %v", o.workload, line.Failed, line.Attempted, res.Regime)
	}
	return nil
}
