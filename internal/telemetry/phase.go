package telemetry

import (
	"context"
	"runtime/pprof"
)

// Planner and platform phase names, attached as the pprof label "phase"
// around the hot regions of the search engine and the simulator so CPU
// and heap profiles decompose by phase (go tool pprof -tagfocus
// phase=csp, or the /debug/pprof endpoints of the obs server). The
// constants are shared by the labeling call sites and the tests that
// assert a captured profile carries them.
const (
	PhaseDijkstra      = "dijkstra"
	PhaseAlgorithm1    = "algorithm1"
	PhaseCSP           = "csp"
	PhaseFrontierSweep = "frontier_sweep"
	PhaseSimulate      = "simulate"
)

// DoPhase runs f with the pprof label phase=name attached to the calling
// goroutine (and propagated, via ctx, to goroutines the region spawns
// with pprof.Do-aware plumbing). Labeling is profile-only metadata: it
// never changes scheduling, results or determinism, and its cost is two
// label-set swaps per call — so call sites wrap whole phases, not inner
// loops.
func DoPhase(ctx context.Context, name string, f func(context.Context)) {
	pprof.Do(ctx, pprof.Labels("phase", name), f)
}
