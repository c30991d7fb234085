package dag

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"astra/internal/graph"
	"astra/internal/model"
	"astra/internal/telemetry"
	"astra/internal/workload"
)

// sameAnswer reports whether two constrained answers are one: the same
// error, and on success the same nodes and the same W and Side bits.
func sameAnswer(p graph.Path, err error, q graph.Path, qerr error) bool {
	if (err == nil) != (qerr == nil) || (err != nil && !errors.Is(err, qerr)) {
		return false
	}
	return err != nil || (slices.Equal(p.Nodes, q.Nodes) &&
		math.Float64bits(p.W) == math.Float64bits(q.W) &&
		math.Float64bits(p.Side) == math.Float64bits(q.Side))
}

// checkOptima fails unless the memo's entries are sorted, pairwise
// disjoint, non-empty intervals, at most one per distinct path.
func checkOptima(t *testing.T, name string, d *DAG) {
	t.Helper()
	es := d.optima.entries
	for i, e := range es {
		if !(e.lo < e.hi) {
			t.Fatalf("%s: entry %d holds the empty interval [%v, %v)", name, i, e.lo, e.hi)
		}
		if i > 0 && es[i-1].hi > e.lo {
			t.Fatalf("%s: entries %d [%v, %v) and %d [%v, %v) overlap", name, i-1, es[i-1].lo, es[i-1].hi, i, e.lo, e.hi)
		}
		for j := range es[:i] {
			if samePath(es[j].path, e.path) {
				t.Fatalf("%s: entries %d and %d keep one path", name, j, i)
			}
		}
	}
}

// TestConstrainedPathMatchesFreshSearch: on configuration DAGs for every
// workload profile, small and mid N, both modes, every answer the memo
// gives equals a fresh search — nodes, W and Side bits, error — at
// random budgets and at each kept interval's endpoints Lo and
// Nextafter(Hi, 0). The kept entries stay disjoint, one per distinct
// optimum.
func TestConstrainedPathMatchesFreshSearch(t *testing.T) {
	profiles := []workload.Profile{workload.WordCount, workload.Sort, workload.Query, workload.Grep, workload.SparkSQL, workload.SparkWordCount}
	sizes := []int{12, 48}
	if testing.Short() {
		sizes = []int{12}
	}
	rng := rand.New(rand.NewSource(38))
	var hits, probes int
	for _, pf := range profiles {
		for _, n := range sizes {
			for _, mode := range []Mode{MinimizeTime, MinimizeCost} {
				name := fmt.Sprintf("%s/%d/%v", pf.Name, n, mode)
				m := model.NewPaper(model.DefaultParams(workload.Job{Profile: pf, NumObjects: n, ObjectSize: 64 << 20}))
				d, err := BuildContext(context.Background(), m, mode, Options{})
				if err != nil {
					t.Fatal(err)
				}
				reg := telemetry.New()
				ctx := telemetry.NewContext(context.Background(), reg)
				b := d.ToGoBounds(ctx)
				fresh := func(budget float64) (graph.Path, error) {
					return d.G.ConstrainedShortestPathBoundedCtx(context.Background(), d.Src, d.Dst, budget, b, math.Inf(1))
				}
				free, err := fresh(math.Inf(1))
				if err != nil {
					t.Fatal(err)
				}
				minSide := b.SideToGo[d.Src]
				probe := func(budget float64) {
					t.Helper()
					before := reg.Counter(telemetry.MCSPMemoHits).Value()
					got, gerr := d.ConstrainedPath(ctx, budget)
					want, werr := fresh(budget)
					if !sameAnswer(got, gerr, want, werr) {
						t.Fatalf("%s budget %v: memo answers %+v (%v), a fresh search %+v (%v)", name, budget, got, gerr, want, werr)
					}
					hits += int(reg.Counter(telemetry.MCSPMemoHits).Value() - before)
					probes++
				}
				// Random budgets across the whole range, twice each: the
				// second probe of a certified budget is a memo answer.
				distinct := map[string]bool{}
				for i := 0; i < 40; i++ {
					budget := minSide + (free.Side-minSide)*(rng.Float64()*1.1-0.05)
					probe(budget)
					probe(budget)
					if opt, err := fresh(budget); err == nil {
						distinct[fmt.Sprint(opt.Nodes)] = true
					}
				}
				probe(math.Inf(1))
				checkOptima(t, name, d)
				if len(d.optima.entries) == 0 || len(d.optima.entries) > len(distinct)+1 {
					t.Fatalf("%s: %d entries for %d distinct optima", name, len(d.optima.entries), len(distinct)+1)
				}
				// Every kept interval at its ends and inside.
				for _, e := range slices.Clone(d.optima.entries) {
					at := []float64{e.lo, e.lo + (min(e.hi, free.Side)-e.lo)*rng.Float64()}
					if math.IsInf(e.hi, 1) {
						at = append(at, math.Inf(1))
					} else {
						at = append(at, math.Nextafter(e.hi, 0))
					}
					for _, budget := range at {
						probe(budget)
					}
				}
				checkOptima(t, name, d)
			}
		}
	}
	t.Logf("%d probes, %d answered by the memo", probes, hits)
	if hits < probes/2 {
		t.Fatalf("only %d of %d probes hit the memo", hits, probes)
	}
}

// TestConstrainedPathConcurrent: goroutines asking one template for
// overlapping budgets, at once, get the answers one goroutine gets alone,
// and leave the memo disjoint. Run under -race, it checks the memo's
// locking.
func TestConstrainedPathConcurrent(t *testing.T) {
	m := model.NewPaper(model.DefaultParams(workload.Job{Profile: workload.Sort, NumObjects: 20, ObjectSize: 64 << 20}))
	build := func() *DAG {
		d, err := BuildContext(context.Background(), m, MinimizeTime, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	serial, shared := build(), build()
	ctx := context.Background()
	b := serial.ToGoBounds(ctx)
	free, err := serial.G.ConstrainedShortestPathBoundedCtx(ctx, serial.Src, serial.Dst, math.Inf(1), b, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	minSide := b.SideToGo[serial.Src]
	budgets := make([]float64, 64)
	for i := range budgets {
		budgets[i] = minSide + (free.Side-minSide)*float64(i%16)/16
	}
	want := make([]graph.Path, len(budgets))
	for i, budget := range budgets {
		if want[i], err = serial.ConstrainedPath(ctx, budget); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range budgets {
				i := (k + 16*w) % len(budgets)
				got, err := shared.ConstrainedPath(ctx, budgets[i])
				if !sameAnswer(got, err, want[i], nil) {
					t.Errorf("budget %v: %+v (%v) concurrently, %+v alone", budgets[i], got, err, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
	checkOptima(t, "shared", shared)
}
