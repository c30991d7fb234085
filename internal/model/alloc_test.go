package model

import (
	"runtime"
	"testing"

	"astra/internal/mapreduce"
	"astra/internal/workload"
)

// exactPredictBytes is the heap one Exact.Predict allocates, averaged over
// runs calls (MemStats rather than AllocsPerRun: the bound is on bytes).
func exactPredictBytes(t *testing.T, m *Exact, cfg mapreduce.Config, runs int) uint64 {
	t.Helper()
	if _, err := m.Predict(cfg); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := m.Predict(cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestExactPredictBytesAreBounded: a prediction allocates in proportion
// to its tasks, not to the account's concurrency limit. Each wave's
// running-task heap holds at most min(limit, tasks) end times; sized by
// the limit (1,000) alone it cost 8 KB per map wave and reduce step, and
// these four predictions 24.2, 18.2, 104.4 and 47.7 KB. What is left is
// the per-wave launch, duration and start slices.
func TestExactPredictBytesAreBounded(t *testing.T) {
	for _, tc := range []struct {
		pf       workload.Profile
		n        int
		cfg      mapreduce.Config
		maxBytes uint64
	}{
		{workload.Sort, 64, mapreduce.Config{MapperMemMB: 1024, CoordMemMB: 1024, ReducerMemMB: 1024, ObjsPerMapper: 1, ObjsPerReducer: 2}, 12 << 10},
		{workload.Sort, 64, mapreduce.Config{MapperMemMB: 128, CoordMemMB: 256, ReducerMemMB: 128, ObjsPerMapper: 4, ObjsPerReducer: 3}, 4 << 10},
		{workload.Query, 207, mapreduce.Config{MapperMemMB: 1024, CoordMemMB: 1024, ReducerMemMB: 1024, ObjsPerMapper: 1, ObjsPerReducer: 2}, 48 << 10},
		{workload.Query, 207, mapreduce.Config{MapperMemMB: 128, CoordMemMB: 256, ReducerMemMB: 128, ObjsPerMapper: 4, ObjsPerReducer: 3}, 12 << 10},
	} {
		m := NewExact(DefaultParams(workload.Job{Profile: tc.pf, NumObjects: tc.n, ObjectSize: 32 << 20}))
		got := exactPredictBytes(t, m, tc.cfg, 200)
		t.Logf("%s N=%d %v: %d bytes per prediction", tc.pf.Name, tc.n, tc.cfg, got)
		if got > tc.maxBytes {
			t.Errorf("%s N=%d %v: %d bytes per prediction, want at most %d", tc.pf.Name, tc.n, tc.cfg, got, tc.maxBytes)
		}
	}
}
