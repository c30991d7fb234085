package optimizer

import (
	"context"
	"errors"
	"testing"
	"time"

	"astra/internal/mapreduce"
	"astra/internal/model"
	"astra/internal/telemetry"
	"astra/internal/workload"
)

func sortParams() model.Params {
	return model.DefaultParams(workload.Job{
		Profile:    workload.Sort,
		NumObjects: 20,
		ObjectSize: 16 << 20,
	})
}

// checkFrontierShape fails unless pts is sorted fastest first with no
// point dominated by another.
func checkFrontierShape(t *testing.T, label string, pts []FrontierPoint) {
	t.Helper()
	for i := 1; i < len(pts); i++ {
		if pts[i].Pred.TotalSec() < pts[i-1].Pred.TotalSec() {
			t.Fatalf("%s: not sorted by time at %d", label, i)
		}
	}
	for i, a := range pts {
		for j, b := range pts {
			if i == j {
				continue
			}
			if b.Pred.TotalSec() <= a.Pred.TotalSec() &&
				b.Pred.TotalCost() <= a.Pred.TotalCost() &&
				(b.Pred.TotalSec() < a.Pred.TotalSec() || b.Pred.TotalCost() < a.Pred.TotalCost()) {
				t.Fatalf("%s: point %d dominated by %d", label, i, j)
			}
		}
	}
}

func samePoints(a, b []FrontierPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Config != b[i].Config || a[i].Pred.TotalSec() != b[i].Pred.TotalSec() ||
			a[i].Pred.TotalCost() != b[i].Pred.TotalCost() {
			return false
		}
	}
	return true
}

// TestFrontierAnytimeMonotonicity is the anytime contract, across two
// workloads and three parallelism degrees:
//
//   - the observer sees at least three progressively refined snapshots,
//   - every snapshot is dominance-consistent and sorted,
//   - a point of the final frontier, once it appears in a snapshot, is
//     never retracted by a later one,
//   - the closing update carries Final and exactly the returned points,
//   - and the final frontier is bit-identical at every pool size.
func TestFrontierAnytimeMonotonicity(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params model.Params
	}{
		{"wordcount", smallParams()},
		{"sort", sortParams()},
	} {
		var reference []FrontierPoint
		for _, workers := range []int{1, 4, 0} {
			var updates []FrontierUpdate
			pl := &Planner{Params: tc.params, Parallelism: workers}
			res, err := pl.Frontier(context.Background(), 12, func(u FrontierUpdate) { updates = append(updates, u) })
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if len(updates) < 3 {
				t.Fatalf("%s workers=%d: only %d snapshots, want >= 3", tc.name, workers, len(updates))
			}
			last := updates[len(updates)-1]
			if !last.Final {
				t.Fatalf("%s workers=%d: last update not Final", tc.name, workers)
			}
			if !samePoints(last.Points, res.Points) {
				t.Fatalf("%s workers=%d: final snapshot differs from the returned frontier", tc.name, workers)
			}
			for i, u := range updates[:len(updates)-1] {
				if u.Final {
					t.Fatalf("%s workers=%d: update %d marked Final early", tc.name, workers, i)
				}
				if i > 0 && u.Phase <= updates[i-1].Phase {
					t.Fatalf("%s workers=%d: phases not increasing (%d then %d)",
						tc.name, workers, updates[i-1].Phase, u.Phase)
				}
			}
			finalSet := make(map[mapreduce.Config]bool, len(res.Points))
			for _, p := range res.Points {
				finalSet[p.Config] = true
			}
			seen := map[mapreduce.Config]bool{}
			for i, u := range updates {
				checkFrontierShape(t, tc.name, u.Points)
				inThis := map[mapreduce.Config]bool{}
				for _, p := range u.Points {
					inThis[p.Config] = true
				}
				for cfg := range seen {
					if !inThis[cfg] {
						t.Fatalf("%s workers=%d: update %d retracted final-frontier point %v",
							tc.name, workers, i, cfg)
					}
				}
				for cfg := range inThis {
					if finalSet[cfg] {
						seen[cfg] = true
					}
				}
			}
			if res.Stats.Phases < 2 || res.Stats.Searches == 0 || res.Stats.Evaluations == 0 {
				t.Fatalf("%s workers=%d: degenerate stats %+v", tc.name, workers, res.Stats)
			}
			if reference == nil {
				reference = res.Points
			} else if !samePoints(reference, res.Points) {
				t.Fatalf("%s: frontier differs at workers=%d", tc.name, workers)
			}
		}
	}
}

// TestFrontierObserverCancelMidPhase: cancelling the sweep's context from
// inside the observer aborts the remaining phases promptly with ctx.Err(),
// and no Final update is ever delivered.
func TestFrontierObserverCancelMidPhase(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var updates []FrontierUpdate
	_, err := New(smallParams()).Frontier(ctx, 16, func(u FrontierUpdate) {
		updates = append(updates, u)
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(updates) == 0 {
		t.Fatal("observer never ran before cancellation")
	}
	for _, u := range updates {
		if u.Final {
			t.Fatal("cancelled sweep still delivered a Final update")
		}
	}
}

// TestFrontierWorkersKnob pins the sweep's pool size to the planner's
// own rule (dagOpts): with DAG options that name none, Planner.Parallelism
// sizes the pool of every phase, as it sizes a plan's DAG build.
func TestFrontierWorkersKnob(t *testing.T) {
	reg := telemetry.New()
	pl := &Planner{Params: smallParams(), Parallelism: 3, Tel: reg}
	if _, err := pl.Frontier(context.Background(), 8, nil); err != nil {
		t.Fatal(err)
	}
	if peak := reg.Gauge(telemetry.MPoolWorkersPeak).Value(); peak != int64(pl.Parallelism) {
		t.Fatalf("pool workers peak = %d, want Planner.Parallelism = %d", peak, pl.Parallelism)
	}
}

// TestPlanAndSweepShareOneBuild: a sweep is a schedule of min-cost
// solves, so a min_cost plan followed by a sweep through one Planner
// builds the cost-mode DAG once and the sweep hits the plan's template.
func TestPlanAndSweepShareOneBuild(t *testing.T) {
	tc := NewTemplateCache(0)
	pl := New(sortParams())
	pl.Solver, pl.Templates = Auto, tc
	if _, err := pl.Plan(unconstrainedCost()); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Frontier(context.Background(), 8, nil); err != nil {
		t.Fatal(err)
	}
	if st := tc.Stats(); st.Builds != 1 || st.Hits != 1 {
		t.Fatalf("template stats %+v, want one build and the sweep's hit", st)
	}
}

// hypervolume is the area dominated by a frontier (sorted fastest first)
// up to the reference corner (refT, refC).
func hypervolume(pts []FrontierPoint, refT, refC float64) float64 {
	hv, prevCost := 0.0, refC
	for _, p := range pts {
		tsec, cost := p.Pred.TotalSec(), float64(p.Pred.TotalCost())
		if tsec >= refT || cost >= prevCost {
			continue
		}
		hv += (refT - tsec) * (prevCost - cost)
		prevCost = cost
	}
	return hv
}

// TestFrontierQualityVsUniformReference guards sweep quality against the
// pre-refactor strategy: constrained plans at Size evenly spaced
// deadlines between the endpoints (what the old engine effectively
// computed, rebuilt here with the ordinary planner as an independent
// oracle). The phased sweep's hypervolume must be at least 98% of the
// uniform reference's.
func TestFrontierQualityVsUniformReference(t *testing.T) {
	params := sortParams()
	const k = 12
	res, err := New(params).Frontier(context.Background(), k, nil)
	if err != nil {
		t.Fatal(err)
	}

	pl := New(params)
	pl.Solver = Auto
	fastest, err := pl.Plan(Objective{Goal: MinTimeUnderBudget, Budget: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	cheapest, err := pl.Plan(Objective{Goal: MinCostUnderDeadline, Deadline: 1e6 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := fastest.Exact.TotalSec(), cheapest.Exact.TotalSec()
	var ref []FrontierPoint
	for i := 0; i < k; i++ {
		dl := lo + (hi-lo)*float64(i)/float64(k-1)
		p, err := pl.Plan(Objective{
			Goal:     MinCostUnderDeadline,
			Deadline: time.Duration(dl * (1 + 1e-9) * float64(time.Second)),
		})
		if err != nil {
			continue
		}
		ref = append(ref, FrontierPoint{Config: p.Config, Pred: p.Exact})
	}
	ref = paretoPrune(ref)
	if len(ref) < 2 {
		t.Fatalf("reference frontier degenerate: %d points", len(ref))
	}

	// Shared reference corner just past the union's worst point on each
	// axis.
	refT, refC := 0.0, 0.0
	for _, p := range append(append([]FrontierPoint{}, res.Points...), ref...) {
		if s := p.Pred.TotalSec(); s > refT {
			refT = s
		}
		if c := float64(p.Pred.TotalCost()); c > refC {
			refC = c
		}
	}
	refT, refC = refT*1.01, refC*1.01
	hvSweep := hypervolume(res.Points, refT, refC)
	hvRef := hypervolume(ref, refT, refC)
	if hvSweep < hvRef*0.98 {
		t.Fatalf("sweep hypervolume %.6g below 98%% of uniform reference %.6g", hvSweep, hvRef)
	}
}
