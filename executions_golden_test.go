package astra

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"astra/internal/flight"
)

// goldenConfigs are each job's executed configurations: the first has
// kR >= mappers, so the one reducing step is the coordinator's final step;
// the others cascade (wordcount) or split the single sort step over
// several reducers.
var goldenConfigs = []struct {
	name string
	job  Job
	cfgs [][2]int // {ObjsPerMapper, ObjsPerReducer}
}{
	{"wordcount", NewJob(WordCount, 12, 96<<20), [][2]int{{2, 6}, {2, 2}, {3, 3}}},
	{"sort", NewJob(Sort, 40, 640<<20), [][2]int{{4, 10}, {4, 3}, {5, 2}}},
}

// goldenChaos returns the cell's fault plan (nil = no injector): the
// checked-in profiles plus a rule failing every reducer before it starts,
// at probability 1 and 0.3.
func goldenChaos(t *testing.T, name string) *ChaosPlan {
	switch name {
	case "none":
		return nil
	case "kill-reducers-1.0", "kill-reducers-0.3":
		p := 1.0
		if name == "kill-reducers-0.3" {
			p = 0.3
		}
		return &ChaosPlan{Seed: 7, Rules: []ChaosRule{{Name: "kill-reducers",
			Target: "lambda", Effect: "fail_before_start", Phase: "reduce", Probability: p}}}
	}
	plan, err := LoadChaosPlan(filepath.Join("testdata", "chaos", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// executionLine renders one run: its JCT and cost, or its error, and one
// SHA-256 over the flight JSONL, the platform stats, the resilience
// section, the invocation records and any concrete outputs.
func executionLine(t *testing.T, cell string, rep *Report, outputs [][]byte, err error) string {
	if err != nil {
		return fmt.Sprintf("%s err=%q\n", cell, err.Error())
	}
	h := sha256.New()
	if err := flight.WriteJSONL(h, rep.Events); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "%+v\n%+v\n%+v\n", rep.Stats, rep.Resilience, rep.Records)
	for _, out := range outputs {
		h.Write(out)
	}
	c := rep.Cost
	return fmt.Sprintf("%s jct=%d cost=%v/%v/%v/%v sha=%x\n", cell, int64(rep.JCT),
		float64(c.Lambda), float64(c.Requests), float64(c.Storage), float64(c.Workflow), h.Sum(nil))
}

// TestExecutionsGolden pins what the MapReduce driver does, bit for bit,
// across {wordcount, sort} x three configs x {coordinator, Step Functions}
// x {object store, cache intermediates} x six fault plans x {no
// speculation, 1.5x} x {0, 2 retries}, plus three concrete runs.
// Regenerate with UPDATE_GOLDEN=1 go test -run TestExecutionsGolden.
func TestExecutionsGolden(t *testing.T) {
	chaosNames := []string{"none", "straggler", "throttle-storm", "lossy-store",
		"kill-reducers-1.0", "kill-reducers-0.3"}
	var b strings.Builder
	for _, g := range goldenConfigs {
		for _, k := range g.cfgs {
			cfg := Config{MapperMemMB: 1024, CoordMemMB: 512, ReducerMemMB: 1024,
				ObjsPerMapper: k[0], ObjsPerReducer: k[1]}
			for _, sf := range []bool{false, true} {
				for _, cache := range []bool{false, true} {
					for _, ch := range chaosNames {
						for _, spec := range []bool{false, true} {
							for _, retries := range []int{0, 2} {
								opts := []RunOption{WithFlightRecorder(NewFlightRecorder()),
									WithTaskRetries(retries)}
								if sf {
									opts = append(opts, WithStepFunctions())
								}
								if cache {
									opts = append(opts, WithCacheIntermediates())
								}
								if plan := goldenChaos(t, ch); plan != nil {
									eng, err := NewChaosEngine(plan)
									if err != nil {
										t.Fatal(err)
									}
									opts = append(opts, WithChaos(eng))
								}
								if spec {
									opts = append(opts, WithSpeculation(1.5))
								}
								cell := fmt.Sprintf("%s kM=%d kR=%d sf=%t cache=%t chaos=%s spec=%t retries=%d",
									g.name, k[0], k[1], sf, cache, ch, spec, retries)
								rep, err := Run(g.job, cfg, opts...)
								b.WriteString(executionLine(t, cell, rep, nil, err))
							}
						}
					}
				}
			}
		}
	}

	cfg := Config{MapperMemMB: 1024, CoordMemMB: 256, ReducerMemMB: 1024,
		ObjsPerMapper: 2, ObjsPerReducer: 2}
	concrete := []struct {
		name string
		job  Job
		opts func() []RunOption
	}{
		{"wordcount", NewJob(WordCount, 8, 32<<10), func() []RunOption { return nil }},
		{"sort", NewJob(Sort, 8, 16<<10), func() []RunOption {
			return []RunOption{WithStepFunctions(), WithCacheIntermediates()}
		}},
		{"query", NewJob(Query, 8, 32<<10), func() []RunOption {
			eng, err := NewChaosEngine(goldenChaos(t, "straggler"))
			if err != nil {
				t.Fatal(err)
			}
			return []RunOption{WithChaos(eng), WithSpeculation(1.5), WithTaskRetries(2)}
		}},
	}
	for _, c := range concrete {
		rec := NewFlightRecorder()
		rep, outputs, err := RunConcrete(c.job, cfg, 5, append(c.opts(), WithFlightRecorder(rec))...)
		b.WriteString(executionLine(t, "concrete "+c.name, rep, outputs, err))
	}
	got := b.String()

	golden := filepath.Join("testdata", "executions.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("execution drifted from golden file at line %d (UPDATE_GOLDEN=1 to regenerate):\n got: %s\nwant: %s",
					i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("execution golden has %d lines, want %d", len(gl), len(wl))
	}
	if !bytes.Contains(want, []byte(`wordcount kM=2 kR=6 sf=false cache=false chaos=kill-reducers-1.0 spec=false retries=0 err="mapreduce: final-step reducer 0: `)) {
		t.Fatal("golden lacks the failed final-step reducer cell")
	}
}
