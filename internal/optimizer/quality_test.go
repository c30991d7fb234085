package optimizer

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"astra/internal/dag"
	"astra/internal/mapreduce"
	"astra/internal/model"
	"astra/internal/pricing"
	"astra/internal/workload"
)

const qualityGoldenPath = "testdata/quality.golden"

// The quality book's grid. The tiers are below the speed floor or on it,
// so dag.Tiers keeps them as given and every solver, Brute included,
// searches the same space.
var (
	qualityProfiles  = []workload.Profile{workload.WordCount, workload.Sort, workload.Query}
	qualitySizes     = []int{6, 12}
	qualityTiers     = []int{128, 512, 1024, 1536, 1792}
	qualityFractions = []float64{0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95}
)

// qualityArm is one served solver's column in the book: its label in the
// file (never Solver.String(), so a solver's rename does not move the
// file) and its running summary.
type qualityArm struct {
	label  string
	solver Solver

	cells, violations, worse, infeasible int
	logRatio, worst                      float64
	worstAt                              string
}

// cell solves one grid cell and returns its column text, folding the
// plan's ratio to the exact optimum into the summary.
func (a *qualityArm) cell(t *testing.T, pl *Planner, obj Objective, oracle float64, at string) string {
	t.Helper()
	pl.Solver = a.solver
	plan, err := pl.Plan(obj)
	a.cells++
	if errors.Is(err, ErrNoFeasiblePlan) {
		a.infeasible++
		return a.label + " none"
	}
	if err != nil {
		t.Fatalf("%s %s: %v", at, a.label, err)
	}
	val, holds := splitObjective(obj, plan.Exact)
	verdict := "holds"
	if !holds {
		a.violations++
		verdict = "VIOLATES"
	}
	ratio := val / oracle
	if val > oracle {
		a.worse++
	}
	a.logRatio += math.Log(ratio)
	if ratio > a.worst {
		a.worst, a.worstAt = ratio, at
	}
	return fmt.Sprintf("%s %s %016x x%.4f %s", a.label, qualityConfig(plan.Config), math.Float64bits(val), ratio, verdict)
}

func (a *qualityArm) summary() string {
	served := a.cells - a.infeasible
	return fmt.Sprintf("# %s: %d violations, %d infeasible, worse than brute in %d of %d cells, geomean x%.4f, worst x%.4f (%s)\n",
		a.label, a.violations, a.infeasible, a.worse, a.cells, math.Exp(a.logRatio/float64(served)), a.worst, a.worstAt)
}

func qualityConfig(c mapreduce.Config) string {
	return fmt.Sprintf("%d/%d/%d/%d/%d", c.MapperMemMB, c.ObjsPerMapper, c.ObjsPerReducer, c.CoordMemMB, c.ReducerMemMB)
}

// TestQualityGolden is the plan-quality book: how far the served plans
// are from the exact optimum. For {wordcount, sort, query} x N {6, 12} x
// both goals x seven constraint fractions between the cheapest and the
// fastest Brute plan, each line records the default solver's and
// Algorithm 1's served configuration, the exact objective of each (float
// bits and its ratio to the optimum) and whether the user's constraint
// holds under the exact model, then Brute's exact objective. The trailing
// comment lines summarize each solver. A change that moves a served plan
// shows here; UPDATE_GOLDEN=1 re-records the file, and the diff is the
// change's claim.
func TestQualityGolden(t *testing.T) {
	arms := []*qualityArm{{label: "default", solver: Auto}, {label: "algorithm1", solver: Algorithm1}}
	var got bytes.Buffer
	fmt.Fprintf(&got, "# tiers %v, 64 MiB objects; columns: cell limit | solver config objective-bits ratio-to-brute constraint | brute objective-bits\n", qualityTiers)
	for _, pf := range qualityProfiles {
		for _, n := range qualitySizes {
			params := model.DefaultParams(workload.Job{Profile: pf, NumObjects: n, ObjectSize: 64 << 20})
			pl := New(params)
			pl.DAGOptions = dag.Options{Tiers: qualityTiers}
			plan := func(s Solver, obj Objective) *Plan {
				pl.Solver = s
				p, err := pl.Plan(obj)
				if err != nil {
					t.Fatalf("%s/%d %v: %v", pf.Name, n, obj, err)
				}
				return p
			}
			fastest, cheapest := plan(Brute, unconstrainedTime()), plan(Brute, unconstrainedCost())
			for _, goal := range []Goal{MinTimeUnderBudget, MinCostUnderDeadline} {
				for _, f := range qualityFractions {
					obj := Objective{Goal: goal}
					var limit float64
					if goal == MinCostUnderDeadline {
						lo, hi := fastest.Exact.JCT(), cheapest.Exact.JCT()
						obj.Deadline = lo + time.Duration(f*float64(hi-lo))
						limit = obj.Deadline.Seconds()
					} else {
						lo, hi := cheapest.Exact.TotalCost(), fastest.Exact.TotalCost()
						obj.Budget = lo + pricing.USD(f*float64(hi-lo))
						limit = float64(obj.Budget)
					}
					at := fmt.Sprintf("%s %d %s %.2f", pf.Name, n, goal, f)
					oracle, _ := splitObjective(obj, plan(Brute, obj).Exact)
					fmt.Fprintf(&got, "%s %016x", at, math.Float64bits(limit))
					for _, a := range arms {
						fmt.Fprintf(&got, " | %s", a.cell(t, pl, obj, oracle, at))
					}
					fmt.Fprintf(&got, " | brute %016x\n", math.Float64bits(oracle))
				}
			}
		}
	}
	for _, a := range arms {
		got.WriteString(a.summary())
	}

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(qualityGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(qualityGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(qualityGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("a served plan moved (UPDATE_GOLDEN=1 records it):\n got  %s\n want %s", gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("golden file has %d lines, the suite produced %d", len(wl), len(gl))
	}
}
