// Command astra-explore sweeps one configuration knob for a job and
// prints the resulting completion-time/cost curve — the paper's Fig. 1,
// Fig. 2 and Fig. 6 methodology, generalized to any workload and input.
//
//	astra-explore -workload wordcount -size-gb 1 -objects 20 -knob memory
//	astra-explore -workload sort -size-gb 10 -objects 40 -knob objs-per-mapper
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"astra/internal/api"
	"astra/internal/mapreduce"
	"astra/internal/model"
	"astra/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "astra-explore:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	sizeGB   float64
	objects  int
	knob     string
	mem      int
	kM       int
	kR       int
	measure  bool
	serve    string
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("astra-explore", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.workload, "workload", "wordcount",
		"workload profile: wordcount, sort, query, grep, spark-wordcount, spark-sql")
	fs.Float64Var(&o.sizeGB, "size-gb", 1.0, "total input size in GB")
	fs.IntVar(&o.objects, "objects", 20, "number of input objects")
	fs.StringVar(&o.knob, "knob", "memory",
		"knob to sweep: memory, objs-per-mapper, objs-per-reducer")
	fs.IntVar(&o.mem, "memory", 1024, "fixed memory MB for the non-swept lambdas")
	fs.IntVar(&o.kM, "objs-per-mapper", 2, "fixed objects per mapper when not swept")
	fs.IntVar(&o.kR, "objs-per-reducer", 2, "fixed objects per reducer when not swept")
	fs.BoolVar(&o.measure, "measure", false,
		"execute each point on the simulator instead of predicting")
	fs.StringVar(&o.serve, "serve", "",
		"expose the live observability plane on this address while the sweep runs")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, nil
}

// sweepValues enumerates the knob's candidate values.
func sweepValues(o *options, params model.Params) ([]int, error) {
	switch o.knob {
	case "memory":
		return []int{128, 256, 512, 768, 1024, 1280, 1536, 1792, 2048, 2560, 3008}, nil
	case "objs-per-mapper", "objs-per-reducer":
		var vals []int
		for k := 1; k <= o.objects; k++ {
			vals = append(vals, k)
			if len(vals) >= 24 {
				break
			}
		}
		return vals, nil
	default:
		return nil, fmt.Errorf("unknown knob %q", o.knob)
	}
}

// configAt builds the configuration for one sweep point.
func configAt(o *options, v int) mapreduce.Config {
	cfg := mapreduce.Config{
		MapperMemMB: o.mem, CoordMemMB: o.mem, ReducerMemMB: o.mem,
		ObjsPerMapper: o.kM, ObjsPerReducer: o.kR,
	}
	switch o.knob {
	case "memory":
		cfg.MapperMemMB, cfg.CoordMemMB, cfg.ReducerMemMB = v, v, v
	case "objs-per-mapper":
		cfg.ObjsPerMapper = v
	case "objs-per-reducer":
		cfg.ObjsPerReducer = v
	}
	return cfg
}

func run(args []string, out io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.serve != "" {
		srv := obs.NewServer(obs.Options{RuntimeMetrics: true})
		if err := srv.Start(o.serve); err != nil {
			return err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}()
		fmt.Fprintf(os.Stderr, "astra-explore: observability at http://%s\n", srv.Addr())
	}
	// The job resolves as the planning service resolves a request's job.
	job, err := (&api.FrontierRequest{
		Workload:   o.workload,
		NumObjects: o.objects,
		TotalBytes: int64(o.sizeGB * float64(int64(1)<<30)),
	}).Resolve()
	if err != nil {
		return err
	}
	params := model.DefaultParams(job)
	vals, err := sweepValues(o, params)
	if err != nil {
		return err
	}

	exact := model.NewExact(params)
	source := "predicted"
	if o.measure {
		source = "measured"
	}
	fmt.Fprintf(out, "%s: %s sweep over %s (%d objects, %.2f GB)\n",
		source, o.knob, o.workload, o.objects, o.sizeGB)
	fmt.Fprintf(out, "%-18s %-12s %-12s %-10s %-10s\n", o.knob, "JCT", "cost", "mappers", "reducers")

	bestV, bestJCT := 0, 0.0
	for _, v := range vals {
		cfg := configAt(o, v)
		pred, err := exact.Predict(cfg)
		if err != nil {
			continue // infeasible point (e.g. kM > N)
		}
		jct, cost := pred.TotalSec(), pred.TotalCost()
		orch := pred.Orch
		if o.measure {
			rep, err := measure(params, cfg)
			if err != nil {
				continue
			}
			jct, cost, orch = rep.JCT.Seconds(), rep.Cost.Total(), rep.Orchestration
		}
		fmt.Fprintf(out, "%-18d %-12s %-12s %-10d %-10d\n",
			v, fmt.Sprintf("%.2fs", jct), cost, orch.Mappers(), orch.Reducers())
		if bestV == 0 || jct < bestJCT {
			bestV, bestJCT = v, jct
		}
	}
	if bestV == 0 {
		return fmt.Errorf("no feasible sweep point")
	}
	fmt.Fprintf(out, "fastest at %s = %d (%.2fs)\n", o.knob, bestV, bestJCT)
	return nil
}
