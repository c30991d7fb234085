package simworld

import (
	"context"
	"errors"
	"testing"
	"time"

	"astra/internal/lambda"
	"astra/internal/mapreduce"
	"astra/internal/model"
	"astra/internal/simtime"
	"astra/internal/workload"
)

// TestRunMatchesRetiredPaths pins the world to the Reports its
// hand-copied predecessors produced (captured at the commit before they
// were folded into this package): astra.Run / RunWith for profiled
// seeding with the function timeout lifted, astra.RunConcrete and
// profiler.Calibrate for concrete seeding with it enforced — the latter
// two differ only in bucket name, which no measured number sees.
func TestRunMatchesRetiredPaths(t *testing.T) {
	treeCfg := mapreduce.Config{
		MapperMemMB: 1024, CoordMemMB: 256, ReducerMemMB: 1024,
		ObjsPerMapper: 2, ObjsPerReducer: 2,
	}
	// 128 MB lambdas over ten 500 MB objects each: the slowest invocation
	// runs 15250 s, far past the provider's 900 s cap.
	slowCfg := mapreduce.Config{
		MapperMemMB: 128, CoordMemMB: 128, ReducerMemMB: 128,
		ObjsPerMapper: 10, ObjsPerReducer: 10,
	}
	sample := workload.Job{Profile: workload.WordCount, NumObjects: 8, ObjectSize: 20000}
	// A provider whose cap every sample lambda overruns.
	strict := model.DefaultParams(sample)
	sheet := *strict.Sheet
	sheet.Lambda.Timeout = time.Millisecond
	strict.Sheet = &sheet

	cases := []struct {
		name    string
		params  model.Params
		in      Input
		cfg     mapreduce.Config
		jct     time.Duration
		cost    float64
		wantErr error
	}{
		{"profiled/astra.Run", model.DefaultParams(workload.WordCount1GB()),
			Input{Bucket: "input"}, treeCfg, 53438638225, 0.003390178027148809, nil},
		{"profiled/timeout lifted", model.DefaultParams(workload.Sort100GB()),
			Input{Bucket: "input"}, slowCfg, 16790172500000, 0.15508320999379102, nil},
		{"concrete/astra.RunConcrete", model.DefaultParams(sample),
			Input{Bucket: "input", Concrete: true, Seed: 2026}, treeCfg, 4570351187, 6.775838973462897e-05, nil},
		{"concrete/profiler.Calibrate", model.DefaultParams(sample),
			Input{Bucket: "sample", Concrete: true, Seed: 2026}, treeCfg, 4570351187, 6.775838973462897e-05, nil},
		{"concrete/timeout enforced", strict,
			Input{Bucket: "input", Concrete: true, Seed: 2026}, treeCfg, 0, 0, lambda.ErrTimeout},
		{"profiled/astra.RunWith, cap ignored", strict,
			Input{Bucket: "input"}, treeCfg, 4573172982, 6.781255701926412e-05, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := New(tc.params, tc.in)
			if err != nil {
				t.Fatal(err)
			}
			hookRan := false
			rep, err := w.Run(context.Background(), tc.cfg, nil, func(p *simtime.Proc, rep *mapreduce.Report) error {
				hookRan = true
				for _, key := range rep.OutputKeys {
					if _, err := w.Store.Head(p, rep.InterBucket, key); err != nil {
						return err
					}
				}
				return nil
			})
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) || rep != nil || hookRan {
					t.Fatalf("err = %v (report %v, hook ran %v), want %v and neither", err, rep, hookRan, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !hookRan {
				t.Fatal("after hook did not run")
			}
			if rep.JCT != tc.jct || float64(rep.Cost.Total()) != tc.cost {
				t.Fatalf("report = %d ns, $%v; retired path produced %d ns, $%v",
					rep.JCT, float64(rep.Cost.Total()), tc.jct, tc.cost)
			}
		})
	}
}

// TestNewRejectsInvalidParams: the constructor dereferences the price
// sheet, so it must refuse parameters without one.
func TestNewRejectsInvalidParams(t *testing.T) {
	if _, err := New(model.Params{}, Input{Bucket: "input"}); err == nil {
		t.Fatal("zero Params accepted")
	}
}
