package astra

import (
	"errors"
	"testing"
	"time"

	"astra/internal/workload"
)

// TestAlgorithm1OnBindingCells pins what the named heuristic does on the
// benchmark's 32 binding_constraint cells (benchmark/gen.go: smallShapes
// and bindingCells; budget = min + f*(max - min) between the cheapest
// plan's cost and the fastest plan's). Algorithm 1 deletes the edge where
// the budget is first exceeded, so its answer depends on the topology it
// deletes from and not only on path weights: on the nine-column graph one
// deletion of join(k_R) -> s or jc(j) -> k_R bans a whole family, and the
// heuristic answers 13 of these cells in 1,431 rounds where the
// seven-column graph answered 14 in 15,957 (query/16 at f = 0.9 is the
// cell it lost; DESIGN.md section 5, "Algorithm 1 on the factored
// graph"). Rounds and the exact-model JCT are deterministic; a change to
// either is a change to the topology or to the heuristic, and should be
// made on purpose. Zero rounds means "disconnects the graph".
func TestAlgorithm1OnBindingCells(t *testing.T) {
	const mib = 1 << 20
	shapes := []struct {
		profile string
		n       int
	}{{"query", 16}, {"query", 20}, {"grep", 16}, {"grep", 20}, {"spark-sql", 16}, {"spark-sql", 20}, {"sort", 16}, {"sort", 20}}
	cells := []struct {
		shape  int
		f      float64
		rounds int64
		jct    time.Duration
	}{
		{0, 0.55, 0, 0}, {0, 0.70, 0, 0}, {0, 0.90, 0, 0}, {0, 0.95, 500, 17658785316},
		{1, 0.55, 0, 0}, {1, 0.70, 0, 0}, {1, 0.80, 0, 0}, {1, 0.825, 0, 0},
		{2, 0.55, 0, 0}, {2, 0.65, 0, 0}, {2, 0.925, 75, 11309505659}, {2, 0.95, 28, 10872599002},
		{3, 0.55, 0, 0}, {3, 0.65, 0, 0}, {3, 0.70, 0, 0}, {3, 0.95, 32, 12389909467},
		{4, 0.55, 0, 0}, {4, 0.70, 0, 0}, {4, 0.80, 0, 0}, {4, 0.95, 521, 22312499414},
		{5, 0.55, 0, 0}, {5, 0.65, 0, 0}, {5, 0.75, 0, 0}, {5, 0.80, 0, 0},
		{6, 0.65, 52, 27923928571}, {6, 0.70, 35, 24851928571}, {6, 0.75, 29, 23197774725}, {6, 0.80, 23, 22163928571},
		{7, 0.65, 52, 29946785714}, {7, 0.70, 38, 26874785714}, {7, 0.75, 29, 25220631868}, {7, 0.85, 17, 23479417293},
	}
	type costRange struct{ min, max float64 }
	ranges := make([]costRange, len(shapes))
	jobs := make([]Job, len(shapes))
	for i, sh := range shapes {
		pf, err := workload.ByName(sh.profile)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = Job{Profile: pf, NumObjects: sh.n, ObjectSize: 64 * mib}
		cheapest, err := Plan(jobs[i], MinCost(100*time.Hour), WithPrivateCaches())
		if err != nil {
			t.Fatal(err)
		}
		fastest, err := Plan(jobs[i], MinTime(10), WithPrivateCaches())
		if err != nil {
			t.Fatal(err)
		}
		ranges[i] = costRange{float64(cheapest.Exact.TotalCost()), float64(fastest.Exact.TotalCost())}
	}
	for ci, c := range cells {
		sh, r := shapes[c.shape], ranges[c.shape]
		budget := r.min + c.f*(r.max-r.min)
		p, err := Plan(jobs[c.shape], MinTime(budget), WithSolver(SolverAlgorithm1), WithPrivateCaches(), WithTelemetry(NewTelemetry()))
		if c.rounds == 0 {
			if !errors.Is(err, ErrInfeasible) {
				t.Errorf("cell %d %s/%d f=%v: plan %+v, err %v; want ErrInfeasible", ci, sh.profile, sh.n, c.f, p, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("cell %d %s/%d f=%v: %v; want a plan in %d rounds", ci, sh.profile, sh.n, c.f, err, c.rounds)
			continue
		}
		if p.Search.Alg1Rounds != c.rounds || p.Exact.JCT() != c.jct {
			t.Errorf("cell %d %s/%d f=%v: %d rounds, JCT %v; want %d rounds, %v",
				ci, sh.profile, sh.n, c.f, p.Search.Alg1Rounds, p.Exact.JCT(), c.rounds, c.jct)
		}
		if float64(p.Exact.TotalCost()) > budget {
			t.Errorf("cell %d %s/%d f=%v: plan costs %v, over the %v budget", ci, sh.profile, sh.n, c.f, p.Exact.TotalCost(), budget)
		}
	}
}
