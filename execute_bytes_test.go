package astra

import (
	"runtime"
	"testing"

	"astra/internal/model"
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
