package astra

import (
	"fmt"
	"testing"
	"time"

	"astra/internal/flight"
)

// TestRunWithTelemetryStats drives a job with a registry and a flight
// recorder attached and checks the readouts agree: the report's RunStats
// with the raw registry counters, and Report.Phases with the recorder's
// phase windows, which are the run's only record of them (the registry
// holds no spans for a run). Attaching both leaves the simulated result
// untouched.
func TestRunWithTelemetryStats(t *testing.T) {
	job := NewJob(WordCount, 10, 64<<20)
	cfg := Config{
		MapperMemMB: 1024, CoordMemMB: 256, ReducerMemMB: 1024,
		ObjsPerMapper: 2, ObjsPerReducer: 2,
	}
	bare, err := Run(job, cfg)
	if err != nil {
		t.Fatal(err)
	}

	reg := NewTelemetry()
	rep, err := Run(job, cfg, WithRunTelemetry(reg), WithFlightRecorder(NewFlightRecorder()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.JCT != bare.JCT || rep.Cost.Total() != bare.Cost.Total() {
		t.Fatalf("telemetry perturbed the run: JCT %v vs %v, cost %v vs %v",
			rep.JCT, bare.JCT, rep.Cost.Total(), bare.Cost.Total())
	}

	st := rep.Stats
	if st.Invocations != len(rep.Records) {
		t.Fatalf("stats invocations = %d, records = %d", st.Invocations, len(rep.Records))
	}
	if st.ColdStarts == 0 || st.StorePuts == 0 || st.StoreGets == 0 || st.StoreBytesOut == 0 || st.PeakConcurrency == 0 {
		t.Fatalf("platform stats empty: %+v", st)
	}

	snap := reg.Snapshot()
	if got := snap.Counter("astra_lambda_invocations_total"); got != int64(st.Invocations) {
		t.Fatalf("registry invocations = %d, stats = %d", got, st.Invocations)
	}
	if got := snap.Counter("astra_store_put_total"); got != st.StorePuts {
		t.Fatalf("registry puts = %d, stats = %d", got, st.StorePuts)
	}
	if len(snap.Spans) != 0 {
		t.Fatalf("the run recorded %d span(s) on the registry; its phases are the flight recorder's", len(snap.Spans))
	}
	phases := map[string]time.Duration{}
	for _, ev := range rep.Events {
		if ev.Kind == flight.KindPhase {
			phases[ev.Name] = ev.Time - ev.Start
		}
	}
	if phases["run"] != rep.JCT || phases["map"] != rep.Phases.Map {
		t.Fatalf("phase windows %v, want run %v and map %v", phases, rep.JCT, rep.Phases.Map)
	}
	for i, d := range rep.Phases.Steps {
		if name := fmt.Sprintf("step-%02d", i); phases[name] != d {
			t.Fatalf("phase %s = %v, Report.Phases.Steps[%d] = %v", name, phases[name], i, d)
		}
	}
}

func TestRunWithStepFunctions(t *testing.T) {
	job := NewJob(WordCount, 10, 64<<20)
	cfg := Config{
		MapperMemMB: 1024, CoordMemMB: 256, ReducerMemMB: 1024,
		ObjsPerMapper: 2, ObjsPerReducer: 2,
	}
	coord, err := Run(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := Run(job, cfg, WithStepFunctions())
	if err != nil {
		t.Fatal(err)
	}
	if sf.Cost.Workflow <= 0 {
		t.Fatal("step functions mode must bill transitions")
	}
	if coord.Cost.Workflow != 0 {
		t.Fatal("coordinator mode must not bill transitions")
	}
	// The footnote's claim: the coordinator lambda is cheaper overall.
	if coord.Cost.Total() >= sf.Cost.Total() {
		t.Fatalf("coordinator total %v should undercut step functions %v",
			coord.Cost.Total(), sf.Cost.Total())
	}
}

func TestRunWithCacheIntermediates(t *testing.T) {
	job := NewJob(Sort, 10, 2<<30) // data-heavy: the cache tier pays off
	cfg := Config{
		MapperMemMB: 1792, CoordMemMB: 256, ReducerMemMB: 1792,
		ObjsPerMapper: 2, ObjsPerReducer: 2,
	}
	s3, err := Run(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := Run(job, cfg, WithCacheIntermediates())
	if err != nil {
		t.Fatal(err)
	}
	if cache.JCT >= s3.JCT {
		t.Fatalf("cache intermediates (%v) should beat the object store (%v)",
			cache.JCT, s3.JCT)
	}
}

func TestRunConcreteWithOptions(t *testing.T) {
	job := NewJob(WordCount, 6, 12<<10)
	cfg := Config{
		MapperMemMB: 1024, CoordMemMB: 256, ReducerMemMB: 1024,
		ObjsPerMapper: 2, ObjsPerReducer: 3,
	}
	rep, outputs, err := RunConcrete(job, cfg, 1, WithStepFunctions(), WithCacheIntermediates())
	if err != nil {
		t.Fatal(err)
	}
	if len(outputs) != 1 || rep.Cost.Workflow <= 0 {
		t.Fatalf("outputs=%d workflow=%v", len(outputs), rep.Cost.Workflow)
	}
}
