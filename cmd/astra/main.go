// Command astra plans — and optionally executes on the simulated
// platform — a serverless analytics job under a user objective, the way
// the paper's Astra front end does: submit a job, state a budget or a QoS
// deadline, and receive the optimal configuration and orchestration.
//
// Examples:
//
//	astra -workload wordcount -size-gb 1 -objects 20 \
//	      -objective time -budget 0.005 -run
//
//	astra -workload query -size-gb 25.4 -objects 202 \
//	      -objective cost -deadline 3m -run -baselines
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"astra"

	"astra/internal/flight"
	"astra/internal/mapreduce"
	"astra/internal/model"
	"astra/internal/obs"
	"astra/internal/optimizer"
	"astra/internal/trace"
	"astra/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "astra:", err)
		os.Exit(1)
	}
}

type options struct {
	// job is what the job flags describe, or the -spec file when one is
	// given.
	job        jobSpec
	specPath   string
	traceOut   string
	metricsOut string
	eventsOut  string
	chaosPath  string
	seed       int64
	seedSet    bool
	speculate  float64
	retriesSet bool
	explain    bool
	doRun      bool
	baselines  bool
	timeline   bool
	jsonOut    bool
	audit      bool
	qos        bool
	qosOut     string
	force      bool

	frontier    int
	frontierOut string

	serve      string
	serveFor   time.Duration
	cpuProfile string
	memProfile string

	parallelism int
	planTimeout time.Duration
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("astra", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.job.Workload, "workload", "wordcount",
		"workload profile: wordcount, sort, query, grep, spark-wordcount, spark-sql")
	fs.Float64Var(&o.job.SizeGB, "size-gb", 1.0, "total input size in GB")
	fs.IntVar(&o.job.Objects, "objects", 20, "number of input objects")
	fs.StringVar(&o.job.Objective, "objective", "time",
		"optimization goal: time (minimize JCT under -budget) or cost (minimize cost under -deadline)")
	fs.Float64Var(&o.job.BudgetUSD, "budget", 0, "budget in USD for -objective time (0 = unconstrained)")
	fs.StringVar(&o.job.Deadline, "deadline", "", "QoS completion-time threshold for -objective cost, a Go `duration` (0 = unconstrained)")
	fs.StringVar(&o.job.Solver, "solver", "auto",
		"solver: auto (exact label-setting; csp is another name for it) or algorithm1 (the paper's heuristic); brute force is Go API only")
	fs.StringVar(&o.specPath, "spec", "",
		"path to a JSON job spec, which replaces -workload, -size-gb, -objects, -objective, -budget, -deadline and -solver (an explicit -retries overrides its task_retries)")
	fs.BoolVar(&o.doRun, "run", false, "execute the plan on the simulated platform")
	fs.BoolVar(&o.baselines, "baselines", false, "also execute the paper's three baselines")
	fs.BoolVar(&o.timeline, "timeline", false, "print the execution timeline (implies -run)")
	fs.StringVar(&o.traceOut, "trace-out", "",
		"write the execution timeline to this file (.csv, .json, or .txt for a Gantt chart; implies -run)")
	fs.StringVar(&o.metricsOut, "metrics-out", "",
		"write planning/run telemetry to this file (.json for JSON, anything else for Prometheus text)")
	fs.StringVar(&o.eventsOut, "events-out", "",
		"write the run's flight-recorder event stream to this file as JSONL (implies -run)")
	fs.BoolVar(&o.audit, "audit", false,
		"record the run and print the critical-path / model-accuracy audit (implies -run)")
	fs.BoolVar(&o.qos, "qos", false,
		"attach the streaming QoS monitor: live drift scores, deadline risk and cost burn (implies -run; deadline from -deadline, else 1.5x the predicted JCT)")
	fs.StringVar(&o.qosOut, "qos-out", "",
		"write the final QoS monitor snapshot to this file as JSON (implies -qos)")
	fs.StringVar(&o.chaosPath, "chaos", "",
		"subject the run to a JSON fault-injection profile (implies -run; see README \"Running under faults\")")
	fs.Int64Var(&o.seed, "seed", 0,
		"override the chaos profile's seed (same profile + same seed = same faults)")
	fs.Float64Var(&o.speculate, "speculate", 0,
		"launch speculative backups for tasks running past this multiple of their predicted duration (0 = off, implies -run)")
	fs.IntVar(&o.job.TaskRetries, "retries", 2,
		"re-invoke a failed mapper/reducer task up to this many times (failed attempts stay billed; overrides a -spec file's task_retries)")
	fs.IntVar(&o.frontier, "frontier", 0,
		"sweep a k-point time/cost Pareto frontier instead of planning one configuration (0 = off)")
	fs.StringVar(&o.frontierOut, "frontier-out", "",
		"write the frontier points to this file as CSV (requires -frontier)")
	fs.StringVar(&o.serve, "serve", "",
		"expose the live observability plane on this address (host:port; port 0 picks one): /metrics, /events, /frontier, /explain, /debug/pprof")
	fs.DurationVar(&o.serveFor, "serve-for", 0,
		"keep the -serve plane up this long after the work finishes (interrupt to stop early)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "",
		"write a CPU profile of the whole command (planning phases carry pprof labels) to this file")
	fs.StringVar(&o.memProfile, "memprofile", "",
		"write a heap profile at exit to this file")
	fs.BoolVar(&o.force, "f", false, "overwrite existing output files")
	fs.BoolVar(&o.explain, "explain", false, "print the plan's search report (explain-plan)")
	fs.BoolVar(&o.jsonOut, "json", false, "emit machine-readable JSON")
	fs.IntVar(&o.parallelism, "parallelism", 0,
		"plan-search worker pool size (0 = all cores, 1 = serial)")
	fs.DurationVar(&o.planTimeout, "plan-timeout", 0,
		"abort planning after this wall-clock duration (0 = no limit)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			o.seedSet = true
		case "retries":
			o.retriesSet = true
		}
	})
	if o.speculate < 0 {
		return nil, fmt.Errorf("-speculate must be >= 0, got %v", o.speculate)
	}
	if o.seedSet && o.chaosPath == "" {
		return nil, fmt.Errorf("-seed requires -chaos")
	}
	if o.qosOut != "" {
		o.qos = true
	}
	if o.timeline || o.traceOut != "" || o.eventsOut != "" || o.audit ||
		o.chaosPath != "" || o.speculate > 0 || o.qos {
		o.doRun = true
	}
	if o.frontier < 0 {
		return nil, fmt.Errorf("-frontier must be >= 0, got %d", o.frontier)
	}
	if o.serveFor < 0 {
		return nil, fmt.Errorf("-serve-for must be >= 0, got %v", o.serveFor)
	}
	if o.serveFor > 0 && o.serve == "" {
		return nil, fmt.Errorf("-serve-for requires -serve")
	}
	if o.frontierOut != "" && o.frontier == 0 {
		return nil, fmt.Errorf("-frontier-out requires -frontier")
	}
	if o.frontier > 0 && (o.doRun || o.baselines || o.explain) {
		return nil, fmt.Errorf("-frontier sweeps the whole tradeoff curve; it cannot be combined with -run, -baselines, or -explain")
	}
	return o, nil
}

// createOutput opens an export file for writing. Without -f it refuses to
// clobber an existing file, so a stale artifact is never silently
// replaced; any other open failure (unwritable directory, permission)
// surfaces immediately — before planning starts — as a non-zero exit.
func createOutput(path string, force bool) (*os.File, error) {
	if force {
		return os.Create(path)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if errors.Is(err, fs.ErrExist) {
		return nil, fmt.Errorf("%s exists; pass -f to overwrite", path)
	}
	return f, err
}

// outputs holds the pre-opened export files (nil when the flag is unset).
type outputs struct {
	trace, metrics, events, frontier, qos *os.File
	cpuprofile, memprofile                *os.File
}

func (of *outputs) closeAll() {
	for _, f := range []*os.File{of.trace, of.metrics, of.events, of.frontier,
		of.qos, of.cpuprofile, of.memprofile} {
		if f != nil {
			f.Close()
		}
	}
}

// openOutputs opens every requested export file up front, so path
// problems fail the command before any planning or simulation work.
func openOutputs(o *options) (*outputs, error) {
	of := &outputs{}
	var err error
	open := func(path string) *os.File {
		if err != nil || path == "" {
			return nil
		}
		var f *os.File
		f, err = createOutput(path, o.force)
		return f
	}
	of.trace = open(o.traceOut)
	of.metrics = open(o.metricsOut)
	of.events = open(o.eventsOut)
	of.frontier = open(o.frontierOut)
	of.qos = open(o.qosOut)
	of.cpuprofile = open(o.cpuProfile)
	of.memprofile = open(o.memProfile)
	if err != nil {
		of.closeAll()
		return nil, err
	}
	return of, nil
}

// result is the JSON output schema.
type result struct {
	Workload  string            `json:"workload"`
	Objective string            `json:"objective"`
	Config    mapreduce.Config  `json:"config"`
	Predicted predictionJSON    `json:"predicted"`
	Measured  *measurementJSON  `json:"measured,omitempty"`
	Baselines []measurementJSON `json:"baselines,omitempty"`
	Explain   string            `json:"explain,omitempty"`
	Audit     *flight.Audit     `json:"audit,omitempty"`
	// QoS is the streaming monitor's final snapshot (present with -qos).
	QoS *astra.QoSSnapshot `json:"qos,omitempty"`
	// Resilience attributes fault-injection damage and recovery spend;
	// present only when -chaos or -speculate is active.
	Resilience *mapreduce.Resilience `json:"resilience,omitempty"`
}

type predictionJSON struct {
	JCTSeconds float64 `json:"jct_seconds"`
	CostUSD    float64 `json:"cost_usd"`
}

type measurementJSON struct {
	Name       string  `json:"name"`
	JCTSeconds float64 `json:"jct_seconds"`
	CostUSD    float64 `json:"cost_usd"`
	// DeadlineMet reports whether the measured JCT honored the -deadline
	// objective (present only for -objective cost with a deadline).
	DeadlineMet *bool `json:"deadline_met,omitempty"`
}

func run(ctx context.Context, args []string, out io.Writer) (err error) {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	files, err := openOutputs(o)
	if err != nil {
		return err
	}
	defer files.closeAll()

	if files.cpuprofile != nil {
		if err := pprof.StartCPUProfile(files.cpuprofile); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if files.memprofile == nil {
			return
		}
		runtime.GC() // settle the heap so the profile shows live objects
		if werr := pprof.WriteHeapProfile(files.memprofile); werr != nil && err == nil {
			err = werr
		}
	}()

	// Load and validate the chaos profile up front, so a malformed file
	// (unknown field, bad rule) fails the command before planning starts.
	var chaosPlan *astra.ChaosPlan
	if o.chaosPath != "" {
		if chaosPlan, err = astra.LoadChaosPlan(o.chaosPath); err != nil {
			return err
		}
		if o.seedSet {
			chaosPlan.Seed = o.seed
		}
	}
	// Chaos engines are single-run (rule fire-counters); build a fresh one
	// per execution so the main run and each baseline see identical faults.
	withChaos := func(opts []astra.RunOption) ([]astra.RunOption, error) {
		if chaosPlan == nil {
			return opts, nil
		}
		eng, err := astra.NewChaosEngine(chaosPlan)
		if err != nil {
			return nil, err
		}
		return append(append([]astra.RunOption{}, opts...), astra.WithChaos(eng)), nil
	}

	if o.specPath != "" {
		// A spec file replaces the job flags; an explicit -retries still
		// overrides its task_retries.
		spec, err := loadSpec(o.specPath)
		if err != nil {
			return err
		}
		if o.retriesSet {
			spec.TaskRetries = o.job.TaskRetries
		}
		o.job = spec
	}
	job, obj, solver, runOpts, err := o.job.resolve()
	if err != nil {
		return err
	}
	// An explicit deadline is the QoS threshold, and a run reports
	// whether it met it.
	deadlineSet := obj.Goal == optimizer.MinCostUnderDeadline && obj.Deadline != unconstrainedDeadline

	planCtx := ctx
	if o.planTimeout > 0 {
		var cancel context.CancelFunc
		planCtx, cancel = context.WithTimeout(ctx, o.planTimeout)
		defer cancel()
	}
	params := model.DefaultParams(job)
	var tel *astra.Telemetry
	if o.explain || o.metricsOut != "" || o.serve != "" {
		tel = astra.NewTelemetry()
	}

	// The flight recorder observes only the main (planned) run —
	// baselines stay unrecorded so the exported/streamed event stream
	// describes exactly one execution.
	var rec *astra.FlightRecorder
	if o.audit || o.eventsOut != "" || o.serve != "" || o.qos {
		rec = astra.NewFlightRecorder()
	}

	// -serve mounts the observability plane over the same registry and
	// recorder the command is about to use, so clients watch the plan and
	// run live. It stays up through the optional -serve-for window and
	// shuts down gracefully (draining SSE clients) on the way out.
	var srv *obs.Server
	if o.serve != "" {
		srv = obs.NewServer(obs.Options{Telemetry: tel, Flight: rec, RuntimeMetrics: true})
		if err := srv.Start(o.serve); err != nil {
			return err
		}
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if serr := srv.Shutdown(sctx); serr != nil && err == nil {
				err = serr
			}
		}()
		fmt.Fprintf(infoWriter(o, out), "observability: http://%s (/metrics /events /frontier /explain /qos /audit /debug/pprof)\n", srv.Addr())
	}

	if o.frontier > 0 {
		if err := runFrontier(planCtx, out, o, job, params, files, tel, srv); err != nil {
			return err
		}
		if files.metrics != nil && tel != nil {
			if err := writeMetrics(files.metrics, o.metricsOut, tel); err != nil {
				return err
			}
		}
		waitServe(ctx, o, srv, out)
		return nil
	}
	// Private caches: a CLI invocation is one-shot, and its reported
	// search stats must be a function of the flags alone — not of other
	// planning calls that happened to share the process.
	plan, err := astra.PlanContext(planCtx, job, obj,
		astra.WithParams(params),
		astra.WithSolver(solver),
		astra.WithParallelism(o.parallelism),
		astra.WithPrivateCaches(),
		astra.WithTelemetry(tel))
	if err != nil {
		return err
	}
	if srv != nil {
		srv.PublishExplain(plan.Explain())
	}
	if tel != nil {
		runOpts = append(runOpts, astra.WithRunTelemetry(tel))
	}
	if o.speculate > 0 {
		runOpts = append(runOpts, astra.WithSpeculation(o.speculate))
	}

	res := result{
		Workload:  o.job.Workload,
		Objective: obj.Goal.String(),
		Config:    plan.Config,
		Predicted: predictionJSON{
			JCTSeconds: plan.Exact.TotalSec(),
			CostUSD:    float64(plan.Exact.TotalCost()),
		},
	}

	if !o.jsonOut {
		fmt.Fprintf(out, "workload:  %s, %d objects, %.2f GB\n", o.job.Workload, o.job.Objects, o.job.SizeGB)
		fmt.Fprintf(out, "objective: %s\n", describeObjective(obj))
		fmt.Fprintf(out, "solver:    %s\n", solver)
		fmt.Fprintf(out, "plan:      %s\n", plan.Config)
		orch := plan.Exact.Orch
		fmt.Fprintf(out, "shape:     %d mappers, %d reducers in %d step(s)\n",
			orch.Mappers(), orch.Reducers(), orch.NumSteps())
		fmt.Fprintf(out, "predicted: JCT %.2fs, cost %s\n",
			plan.Exact.TotalSec(), plan.Exact.TotalCost())
	}
	if o.explain {
		res.Explain = plan.Explain()
		if !o.jsonOut {
			fmt.Fprintln(out)
			fmt.Fprint(out, res.Explain)
			fmt.Fprintln(out)
		}
	}

	var runReport *mapreduce.Report
	var qosMon *astra.QoSMonitor
	if o.doRun {
		mainOpts := runOpts
		if rec != nil {
			mainOpts = append(append([]astra.RunOption{}, runOpts...),
				astra.WithFlightRecorder(rec))
		}
		if o.qos {
			// The monitor follows the main run only (like the recorder);
			// an explicit -deadline is the QoS threshold, otherwise the
			// default (1.5x predicted JCT) is filled in at Run time.
			qopts := astra.QoSOptions{Tenant: "cli", Job: o.job.Workload,
				Ledger: astra.NewQoSLedger(), Telemetry: tel}
			if deadlineSet {
				qopts.Deadline = obj.Deadline
			}
			qosMon = astra.NewQoSMonitor(qopts)
			mainOpts = append(mainOpts, astra.WithQoSMonitor(qosMon))
			if srv != nil {
				srv.PublishQoS(qosMon)
			}
		}
		if mainOpts, err = withChaos(mainOpts); err != nil {
			return err
		}
		runReport, err = astra.RunWith(params, plan.Config, mainOpts...)
		if err != nil {
			return err
		}
		res.Measured = &measurementJSON{
			Name:       "astra",
			JCTSeconds: runReport.JCT.Seconds(),
			CostUSD:    float64(runReport.Cost.Total()),
		}
		if deadlineSet {
			met := runReport.DeadlineMet(obj.Deadline)
			res.Measured.DeadlineMet = &met
		}
		if !o.jsonOut {
			fmt.Fprintf(out, "measured:  JCT %.2fs, cost %s\n",
				runReport.JCT.Seconds(), runReport.Cost.Total())
			if res.Measured.DeadlineMet != nil {
				fmt.Fprintf(out, "deadline:  %v (met: %v)\n", obj.Deadline, *res.Measured.DeadlineMet)
			}
		}
		if o.chaosPath != "" || o.speculate > 0 {
			resil := runReport.Resilience
			res.Resilience = &resil
			if !o.jsonOut {
				printResilience(out, &resil)
			}
		}
	}

	if o.baselines {
		for i, cfg := range optimizer.Baselines(job.NumObjects) {
			bOpts, err := withChaos(runOpts)
			if err != nil {
				return err
			}
			rep, err := astra.RunWith(params, cfg, bOpts...)
			if err != nil {
				return fmt.Errorf("baseline %d: %w", i+1, err)
			}
			res.Baselines = append(res.Baselines, measurementJSON{
				Name:       optimizer.BaselineNames[i],
				JCTSeconds: rep.JCT.Seconds(),
				CostUSD:    float64(rep.Cost.Total()),
			})
			if !o.jsonOut {
				fmt.Fprintf(out, "%s: JCT %.2fs, cost %s  (%s)\n",
					optimizer.BaselineNames[i], rep.JCT.Seconds(), rep.Cost.Total(), cfg)
			}
		}
	}

	if qosMon != nil {
		snap := qosMon.Snapshot()
		res.QoS = &snap
		if !o.jsonOut {
			printQoS(out, &snap)
		}
		if files.qos != nil {
			enc := json.NewEncoder(files.qos)
			enc.SetIndent("", "  ")
			if err := enc.Encode(snap); err != nil {
				return err
			}
		}
	}

	if o.audit && runReport != nil {
		aud, err := runReport.Audit()
		if err != nil {
			return err
		}
		aud.Publish(tel)
		if srv != nil {
			srv.PublishAudit(aud)
		}
		res.Audit = aud
		if !o.jsonOut {
			fmt.Fprintln(out)
			fmt.Fprint(out, aud.Render())
		}
	}

	if o.timeline && runReport != nil {
		tl := trace.FromRecords(runReport.Records)
		fmt.Fprintln(out)
		fmt.Fprint(out, tl.PhaseSummary())
	}
	if files.trace != nil && runReport != nil {
		if err := writeTrace(files.trace, o.traceOut, trace.FromRecords(runReport.Records)); err != nil {
			return err
		}
	}
	if files.events != nil && runReport != nil {
		if err := flight.WriteJSONL(files.events, runReport.Events); err != nil {
			return err
		}
	}

	if files.metrics != nil && tel != nil {
		if err := writeMetrics(files.metrics, o.metricsOut, tel); err != nil {
			return err
		}
	}

	if o.jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	}
	waitServe(ctx, o, srv, out)
	return nil
}

// infoWriter routes -serve status lines: with -json they go to stderr so
// stdout stays a parseable document.
func infoWriter(o *options, out io.Writer) io.Writer {
	if o.jsonOut {
		return os.Stderr
	}
	return out
}

// waitServe keeps the observability plane up for the -serve-for window
// after the work finished, so clients can scrape the final state; an
// interrupt (or parent-context cancel) ends the window early.
func waitServe(ctx context.Context, o *options, srv *obs.Server, out io.Writer) {
	if srv == nil || o.serveFor <= 0 {
		return
	}
	fmt.Fprintf(infoWriter(o, out), "serving for %v (interrupt to stop)\n", o.serveFor)
	select {
	case <-time.After(o.serveFor):
	case <-ctx.Done():
	}
}

// frontierJSON is the -frontier -json output schema.
type frontierJSON struct {
	Workload string               `json:"workload"`
	Points   []frontierPointJSON  `json:"points"`
	Stats    frontierSweepStatsJS `json:"stats"`
}

type frontierPointJSON struct {
	JCTSeconds float64          `json:"jct_seconds"`
	CostUSD    float64          `json:"cost_usd"`
	Config     mapreduce.Config `json:"config"`
}

type frontierSweepStatsJS struct {
	Phases       int64   `json:"phases"`
	Searches     int64   `json:"searches"`
	Pruned       int64   `json:"pruned"`
	Evaluations  int64   `json:"evaluations"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	WallSeconds  float64 `json:"wall_seconds"`
}

// runFrontier handles -frontier: sweep a k-point Pareto frontier for the
// job, print it (text or JSON), and export CSV when -frontier-out is set.
func runFrontier(ctx context.Context, out io.Writer, o *options, job workload.Job, params model.Params, files *outputs, tel *astra.Telemetry, srv *obs.Server) error {
	opts := []astra.FrontierOption{
		astra.WithFrontierSize(o.frontier),
		astra.WithParams(params),
		astra.WithParallelism(o.parallelism),
		// Invocation-deterministic stats, as in the plan path: the sweep's
		// cache hit rate must not depend on prior in-process planning.
		astra.WithPrivateCaches(),
		astra.WithTelemetry(tel),
	}
	// The sweep is anytime; fan each refinement out to every interested
	// observer (the last WithFrontierObserver wins, so compose here):
	// /frontier SSE clients when -serve is up, stdout narration otherwise.
	var observers []func(astra.FrontierUpdate)
	if srv != nil {
		observers = append(observers, srv.FrontierObserver())
	}
	if !o.jsonOut {
		observers = append(observers, func(u astra.FrontierUpdate) {
			if !u.Final {
				fmt.Fprintf(out, "phase %d: %d frontier point(s)\n", u.Phase, len(u.Points))
			}
		})
	}
	if len(observers) > 0 {
		opts = append(opts, astra.WithFrontierObserver(func(u astra.FrontierUpdate) {
			for _, fn := range observers {
				fn(u)
			}
		}))
	}
	front, err := astra.FrontierContext(ctx, job, opts...)
	if err != nil {
		return err
	}
	if files.frontier != nil {
		if err := writeFrontierCSV(files.frontier, front.Points); err != nil {
			return err
		}
	}
	if o.jsonOut {
		doc := frontierJSON{
			Workload: o.job.Workload,
			Stats: frontierSweepStatsJS{
				Phases:       front.Stats.Phases,
				Searches:     front.Stats.Searches,
				Pruned:       front.Stats.Pruned,
				Evaluations:  front.Stats.Evaluations,
				CacheHitRate: front.Stats.CacheHitRate(),
				WallSeconds:  front.Stats.Wall.Seconds(),
			},
		}
		for _, pt := range front.Points {
			doc.Points = append(doc.Points, frontierPointJSON{
				JCTSeconds: pt.Pred.TotalSec(),
				CostUSD:    float64(pt.Pred.TotalCost()),
				Config:     pt.Config,
			})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	fmt.Fprintf(out, "workload:  %s, %d objects, %.2f GB\n", o.job.Workload, o.job.Objects, o.job.SizeGB)
	fmt.Fprintf(out, "frontier:  %d point(s), %d searches, %d pruned, %d exact evaluations\n",
		len(front.Points), front.Stats.Searches, front.Stats.Pruned, front.Stats.Evaluations)
	for _, pt := range front.Points {
		fmt.Fprintf(out, "  %8.2fs  %s  (%s)\n",
			pt.Pred.TotalSec(), pt.Pred.TotalCost(), pt.Config)
	}
	return nil
}

// writeFrontierCSV exports frontier points with one row per
// configuration, cheapest-to-fastest being the row order the sweep
// already guarantees (sorted by ascending time).
func writeFrontierCSV(f io.Writer, pts []astra.FrontierPoint) error {
	if _, err := io.WriteString(f,
		"jct_seconds,cost_usd,mapper_mem_mb,coord_mem_mb,reducer_mem_mb,objs_per_mapper,objs_per_reducer\n"); err != nil {
		return err
	}
	for _, pt := range pts {
		if _, err := fmt.Fprintf(f, "%.6f,%.8f,%d,%d,%d,%d,%d\n",
			pt.Pred.TotalSec(), float64(pt.Pred.TotalCost()),
			pt.Config.MapperMemMB, pt.Config.CoordMemMB, pt.Config.ReducerMemMB,
			pt.Config.ObjsPerMapper, pt.Config.ObjsPerReducer); err != nil {
			return err
		}
	}
	return nil
}

// writeMetrics exports a telemetry snapshot to a pre-opened file, picking
// the format from the path's extension: .json gets the full JSON document
// (spans included), anything else the Prometheus text exposition.
func writeMetrics(f io.Writer, path string, tel *astra.Telemetry) error {
	snap := tel.Snapshot()
	if strings.HasSuffix(path, ".json") {
		return snap.WriteJSON(f)
	}
	return snap.WritePrometheus(f)
}

// writeTrace exports a timeline to a pre-opened file, picking the format
// from the path's extension: .json, .txt (ASCII Gantt chart), or CSV
// otherwise.
func writeTrace(f io.Writer, path string, tl trace.Timeline) error {
	switch {
	case strings.HasSuffix(path, ".json"):
		return tl.WriteJSON(f)
	case strings.HasSuffix(path, ".txt"):
		_, err := io.WriteString(f, tl.Render(80))
		return err
	default:
		return tl.WriteCSV(f)
	}
}

// printQoS renders the monitor's final verdict: risk state, projection
// vs deadline, drift alarms and cost burn, plus each recorded transition
// at its virtual-time instant.
func printQoS(out io.Writer, s *astra.QoSSnapshot) {
	fmt.Fprintf(out, "qos:       %s — projected JCT %.2fs vs deadline %.2fs (slack %.2fs)\n",
		s.State, s.ProjectedJCT.Seconds(), s.Deadline.Seconds(), s.Slack.Seconds())
	fmt.Fprintf(out, "           spent $%.6f (predicted $%.6f, wasted $%.6f), %d drifted term(s)\n",
		s.Cost.SpentUSD, s.Cost.PredictedUSD, s.Cost.WastedUSD, s.DriftedTerms)
	for _, tr := range s.Transitions {
		switch tr.Kind {
		case "risk":
			fmt.Fprintf(out, "           t+%-8s %s\n", tr.At, tr.State)
		case "drift":
			fmt.Fprintf(out, "           t+%-8s drift %s/%s\n", tr.At, tr.Stage, tr.Term)
		}
	}
}

// printResilience renders the run's fault-and-recovery accounting.
func printResilience(out io.Writer, r *mapreduce.Resilience) {
	fmt.Fprintln(out, "resilience:")
	fmt.Fprintf(out, "  lambda faults:    %d (%d pre-start, %d mid-flight, %d straggled, %d forced cold)\n",
		r.LambdaFaults, r.FailedBeforeStart, r.FailedMidFlight, r.Straggled, r.ForcedColdStarts)
	fmt.Fprintf(out, "  throttles/store:  %d injected throttles, %d store faults\n",
		r.InjectedThrottles, r.StoreFaults)
	fmt.Fprintf(out, "  recovery:         %d task retries, %d backups (%d wins, %d cancelled)\n",
		r.TaskRetries, r.Speculation.BackupsLaunched, r.Speculation.Wins, r.Speculation.Cancelled)
	fmt.Fprintf(out, "  wasted cost:      %s\n", r.WastedCost)
}

func describeObjective(obj optimizer.Objective) string {
	if obj.Goal == optimizer.MinCostUnderDeadline {
		return fmt.Sprintf("minimize cost, JCT <= %v", obj.Deadline)
	}
	return fmt.Sprintf("minimize JCT, cost <= %s", obj.Budget)
}
