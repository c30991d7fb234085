package dag

import (
	"sync"

	"astra/internal/telemetry"
)

// pairW is one precomputed edge weight pair; ok distinguishes a real
// value from an infeasible (absent) combination. The zero value is
// "absent", which is what lets the pooled buffers be recycled with a
// plain clear.
type pairW struct {
	ok   bool
	t, c float64
}

// buildScratch holds the per-build weight-slot buffers of BuildContext's
// phase 1 — the only cold-plan allocations that scale with L x N. The
// buffers are flat, index-addressed backing arrays (each slot written by
// exactly one pool worker), recycled across builds through buildPool so
// a planning service's steady state allocates none of them.
type buildScratch struct {
	mapFeasible []bool    // by kM-1
	mapT, mapC  []float64 // by (kM-1)*L + tierIndex
	repKM       []int     // by transfer class: its smallest feasible kM, 0 for none
	transfer    []pairW   // by class*n + (kR-1)
	coord       []pairW   // by (kR-1)*L + tierIndex
	reduce      []pairW   // by (kR-1)*L + tierIndex
	used        bool
}

var buildPool = sync.Pool{New: func() any { return &buildScratch{} }}

// grow returns s resized to n, reusing capacity and clearing the kept
// prefix (the zero value of every buffer element means "absent").
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// getBuildScratch checks a scratch out of the pool, sized (and cleared)
// for the layout's build.
func getBuildScratch(lay *layout, tel *telemetry.Registry) *buildScratch {
	L, n := lay.nTiers, lay.n
	sc := buildPool.Get().(*buildScratch)
	if sc.used {
		tel.Counter(telemetry.MDAGScratchReuse).Inc()
	}
	sc.used = true
	sc.mapFeasible = grow(sc.mapFeasible, n)
	sc.mapT = grow(sc.mapT, n*L)
	sc.mapC = grow(sc.mapC, n*L)
	sc.repKM = grow(sc.repKM, lay.nJC)
	sc.transfer = grow(sc.transfer, lay.nJC*n)
	sc.coord = grow(sc.coord, n*L)
	sc.reduce = grow(sc.reduce, n*L)
	return sc
}

func putBuildScratch(sc *buildScratch) { buildPool.Put(sc) }
