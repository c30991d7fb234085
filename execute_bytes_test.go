package astra

import (
	"runtime"
	"testing"

	"astra/internal/experiments"
	"astra/internal/mapreduce"
	"astra/internal/model"
	"astra/internal/optimizer"
	"astra/internal/workload"
)

// TestExecutedRunBytesAreBounded bounds the heap bytes one executed run
// allocates, the way the planning service executes a plan: a fresh
// world, a QoS monitor and with it a flight recorder, on the four 64 x
// 64 MiB shapes the execute_run benchmark workload drives. The recorder's
// ring is sized once per run and the report shares it, so bytes per run
// are 128-182 KB on these shapes, down from 250-416 KB when the ring grew
// by append and the report copied it.
func TestExecutedRunBytesAreBounded(t *testing.T) {
	const bound = 200 << 10
	for _, pf := range []Profile{WordCount, Sort, Query, Grep} {
		job := NewJob(pf, 64, 64*64<<20)
		plan, err := Plan(job, MinTime(10), WithPrivateCaches())
		if err != nil {
			t.Fatal(err)
		}
		params := model.DefaultParams(job)
		run := func() {
			mon := NewQoSMonitor(QoSOptions{Deadline: 2 * plan.Exact.JCT(), Tenant: "t", Job: pf.Name})
			if _, err := RunWith(params, plan.Config, WithQoSMonitor(mon)); err != nil {
				t.Fatal(err)
			}
		}
		run()
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > bound {
			t.Errorf("%s: %d B per executed run, want <= %d", pf.Name, per, bound)
		}
	}
}

// BenchmarkSimulateWordCount20GB measures one full simulated execution of
// a 40-object job (hundreds of lambdas on the virtual clock).
func BenchmarkSimulateWordCount20GB(b *testing.B) {
	job := workload.WordCount20GB()
	params := model.DefaultParams(job)
	cfg := optimizer.Baseline1(job.NumObjects)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Execute(params, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateSort100GB measures the biggest engine run: 200 objects,
// 100 GB, 301 lambdas.
func BenchmarkSimulateSort100GB(b *testing.B) {
	job := workload.Sort100GB()
	params := model.DefaultParams(job)
	cfg := mapreduce.Config{
		MapperMemMB: 1792, CoordMemMB: 1792, ReducerMemMB: 1792,
		ObjsPerMapper: 2, ObjsPerReducer: 1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Execute(params, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
