// Command astra-loadgen replays a seeded, weighted mix of job shapes
// against the planning engine at a target tenant concurrency and reports
// the sustained planning throughput: plans/sec, per-plan latency
// quantiles, and the shared template/prediction cache hit rates. It is
// the capacity probe for the multi-tenant planning front end:
//
//	astra-loadgen -concurrency 8 -duration 5s
//	astra-loadgen -plans 500 -mix sort-100gb,query-25gb -out load.json
//	astra-loadgen -target http://localhost:8080 -tenants 4 -plans 150
//
// With -target the driver becomes a remote client of a running
// astra-server: the same deterministic shape sequence is POSTed to
// /v1/plan across -tenants tenant identities, 429s are absorbed by a
// bounded retry loop, and the report splits latency into queue wait and
// service time from the server's timing headers.
//
// The shape sequence is a pure function of -seed, so runs are
// reproducible; every plan is bit-identical to a standalone astra.Plan
// call for the same shape. With -run-every N every Nth planned request is
// also executed on a fresh simulated platform under a streaming QoS
// monitor, and the report gains per-shape deadline attainment against an
// SLO of -slo-factor x the predicted JCT. With -metrics-out the run's
// telemetry (astra_plan_template_*, astra_predcache_*, astra_qos_slo_*,
// pool gauges) is written in Prometheus text exposition format.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"astra"
	"astra/internal/loadgen"
	"astra/internal/model"
	"astra/internal/optimizer"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "astra-loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	duration := flag.Duration("duration", 0, "run for this wall time (0: use -plans)")
	plans := flag.Int("plans", 0, "stop after this many plans (0: use -duration; both 0: 200 plans)")
	concurrency := flag.Int("concurrency", runtime.NumCPU(), "simultaneous tenants")
	mix := flag.String("mix", "", "comma-separated shape names (default: full mix; see -list)")
	list := flag.Bool("list", false, "list available shapes and exit")
	seed := flag.Int64("seed", 1, "shape-sequence seed")
	runEvery := flag.Int("run-every", 0, "execute every Nth planned request under a QoS monitor and report deadline attainment (0: plan only)")
	sloFactor := flag.Float64("slo-factor", 1.05, "deadline for executed runs as a multiple of the predicted JCT")
	out := flag.String("out", "", "write the JSON capacity report to this file")
	metricsOut := flag.String("metrics-out", "", "write Prometheus text-format telemetry to this file")
	target := flag.String("target", "", "drive a running astra-server at this base URL instead of planning in-process")
	tenants := flag.Int("tenants", 4, "tenant identities to spread remote requests across (with -target)")
	flag.Parse()

	if *list {
		for _, s := range loadgen.DefaultMix() {
			fmt.Printf("%-16s weight %d  (%d objects x %d bytes)\n",
				s.Name, s.Weight, s.Job.NumObjects, s.Job.ObjectSize)
		}
		return nil
	}

	shapes := loadgen.DefaultMix()
	if *mix != "" {
		var err error
		shapes, err = loadgen.MixByNames(strings.Split(*mix, ","))
		if err != nil {
			return err
		}
	}
	spec := loadgen.Spec{
		Shapes:      shapes,
		Concurrency: *concurrency,
		MaxPlans:    *plans,
		Duration:    *duration,
		Seed:        *seed,
		Solver:      optimizer.Auto,
		Tel:         astra.NewTelemetry(),
		RunEvery:    *runEvery,
		SLOFactor:   *sloFactor,
		Ledger:      astra.NewQoSLedger(),
		TargetURL:   strings.TrimRight(*target, "/"),
		Tenants:     *tenants,
	}
	if spec.MaxPlans <= 0 && spec.Duration <= 0 {
		spec.MaxPlans = 200
	}
	// One shared cache pair for the whole run — the multi-tenant regime.
	// (Remote runs plan inside the server; these stay idle there.)
	spec.Templates, spec.Cache = optimizer.NewTemplateCache(0), model.NewPredictionCache()

	res, err := loadgen.Run(context.Background(), spec)
	if err != nil {
		return err
	}

	fmt.Printf("plans        %d (%d failed) over %s, %d tenants\n",
		res.Plans, res.Errors, res.Elapsed.Round(time.Millisecond), res.Concurrency)
	fmt.Printf("throughput   %.1f plans/sec\n", res.PlansPerSec)
	fmt.Printf("latency      p50 %s  p95 %s  p99 %s\n",
		res.P50.Round(time.Microsecond), res.P95.Round(time.Microsecond), res.P99.Round(time.Microsecond))
	fmt.Printf("queue wait   p50 %s  p95 %s  p99 %s\n",
		res.QueueP50.Round(time.Microsecond), res.QueueP95.Round(time.Microsecond), res.QueueP99.Round(time.Microsecond))
	fmt.Printf("service      p50 %s  p95 %s  p99 %s\n",
		res.ServiceP50.Round(time.Microsecond), res.ServiceP95.Round(time.Microsecond), res.ServiceP99.Round(time.Microsecond))
	if *target != "" {
		fmt.Printf("remote       %d rate-limited (retried), %d transport errors\n",
			res.RateLimited, res.TransportErrors)
		fmt.Printf("respcache    %d hits / %d misses (server-side, via %s)\n",
			res.RespCacheHits, res.RespCacheMisses, "X-Astra-Cache")
	} else {
		fmt.Printf("templates    %.1f%% hit (%d hits / %d misses, %d builds, %d evictions, %d resident)\n",
			100*res.TemplateHitRate, res.TemplateStats.Hits, res.TemplateStats.Misses,
			res.TemplateStats.Builds, res.TemplateStats.Evictions, res.TemplateStats.Entries)
		fmt.Printf("predictions  %.1f%% hit (%d hits / %d misses)\n",
			100*res.PredictionHitRate, res.PredictionHits, res.PredictionMisses)
	}
	for _, s := range shapes {
		fmt.Printf("  %-16s %d plans\n", s.Name, res.PerShape[s.Name])
	}
	if res.Runs > 0 {
		fmt.Printf("slo          %d runs, %d attained / %d breached (%.1f%% attainment at %.2fx predicted JCT)\n",
			res.Runs, res.DeadlineAttained, res.DeadlineBreached,
			100*float64(res.DeadlineAttained)/float64(res.Runs), *sloFactor)
		for _, s := range shapes {
			if slo, ok := res.SLOPerShape[s.Name]; ok && slo.Runs > 0 {
				fmt.Printf("  %-16s %d runs, %d attained / %d breached\n",
					s.Name, slo.Runs, slo.Attained, slo.Breached)
			}
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			return err
		}
		if err := spec.Tel.Snapshot().WritePrometheus(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *metricsOut)
	}
	return nil
}
