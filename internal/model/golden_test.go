package model

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"astra/internal/mapreduce"
	"astra/internal/workload"
)

const goldenPredictionsPath = "testdata/predictions.golden"

// goldenConfigs is the (k_M, k_R) table for n objects: the collapsed
// k_R = 1 cascade, one mapper (k_M = N), one reducer step that takes every
// mapper output (k_R >= j), the deepest cascade, and two pairs whose
// greedy splits leave short tails at most sizes.
func goldenConfigs(n int) [][2]int {
	var out [][2]int
	for _, k := range [][2]int{{1, 1}, {n, 2}, {1, n}, {min(2, n), 2}, {min(7, n), 3}, {min(3, n), 5}} {
		if !slices.Contains(out, k) {
			out = append(out, k)
		}
	}
	return out
}

// writePrediction appends the float bits of every time and cost field of
// a prediction, its per-step times included, to b.
func writePrediction(b *bytes.Buffer, pr Prediction) {
	fmt.Fprintf(b, " %016x %016x %016x %016x %016x %016x [", math.Float64bits(pr.MapSec), math.Float64bits(pr.CoordSec),
		math.Float64bits(pr.ReduceSec), math.Float64bits(float64(pr.LambdaCost)),
		math.Float64bits(float64(pr.RequestCost)), math.Float64bits(float64(pr.StorageCost)))
	for i, s := range pr.StepSec {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(b, "%016x", math.Float64bits(s))
	}
	b.WriteByte(']')
}

// TestPredictionsMatchGolden pins both predictors bit for bit: for
// {sort, query, wordcount, grep} x N in {1, 16, 20, 64, 97, 136, 207} x
// goldenConfigs, at two (mapper, coordinator, reducer) tier triples and
// once more under a lambda limit that queues the exact timeline into
// waves, one line holds the orchestration's mapper, reducer and step
// counts, every time and cost field of Paper.Predict and of
// Exact.Predict, and a hash of Exact.PredictBreakdown's stages.
// plans.golden in internal/dag pins only sums of DAG weights; this file
// pins the two Predict paths those sums never reach. UPDATE_GOLDEN=1
// rewrites it, and only a deliberate model change may.
func TestPredictionsMatchGolden(t *testing.T) {
	variants := []struct {
		name       string
		i, a, s    int
		maxLambdas int
	}{
		{"t1", 1024, 512, 1792, 0},
		{"t2", 128, 3008, 256, 0},
		{"waves", 1024, 512, 1792, 8},
	}
	var got bytes.Buffer
	for _, pf := range []workload.Profile{workload.Sort, workload.Query, workload.WordCount, workload.Grep} {
		for _, n := range []int{1, 16, 20, 64, 97, 136, 207} {
			for _, v := range variants {
				p := DefaultParams(workload.Job{Profile: pf, NumObjects: n, ObjectSize: 32 << 20})
				p.MaxLambdas = v.maxLambdas
				paper, exact := NewPaper(p), NewExact(p)
				for _, k := range goldenConfigs(n) {
					c := mapreduce.Config{MapperMemMB: v.i, CoordMemMB: v.a, ReducerMemMB: v.s,
						ObjsPerMapper: k[0], ObjsPerReducer: k[1]}
					pp, err := paper.Predict(c)
					if err != nil {
						t.Fatal(err)
					}
					ep, err := exact.Predict(c)
					if err != nil {
						t.Fatal(err)
					}
					bd, err := exact.PredictBreakdown(c)
					if err != nil {
						t.Fatal(err)
					}
					o := ep.Orch
					fmt.Fprintf(&got, "%s %d %s %d/%d %d/%d/%d paper", pf.Name, n, v.name, k[0], k[1],
						o.Mappers(), o.Reducers(), o.NumSteps())
					writePrediction(&got, pp)
					got.WriteString(" exact")
					writePrediction(&got, ep)
					h := fnv.New64a()
					for _, st := range bd.Stages {
						fmt.Fprintf(h, "%s/%s/%d/%d/%d/%d/%d ", st.Name, st.Critical, st.Duration,
							st.Terms.Startup, st.Terms.Compute, st.Terms.IO, st.Terms.Waiting)
					}
					fmt.Fprintf(&got, " stages %016x\n", h.Sum64())
				}
			}
		}
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPredictionsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPredictionsPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPredictionsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("prediction moved (UPDATE_GOLDEN=1 only if the model changed):\n got  %s\n want %s", gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("golden file has %d lines, the suite produced %d", len(wl), len(gl))
	}
}
