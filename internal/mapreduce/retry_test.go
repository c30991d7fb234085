package mapreduce

import (
	"testing"

	"astra/internal/lambda"
	"astra/internal/objectstore"
	"astra/internal/simtime"
)

// opFault adapts a function to objectstore.Injector.
type opFault func(op objectstore.Op, bucket, key string) error

func (f opFault) OpFault(op objectstore.Op, bucket, key string) error { return f(op, bucket, key) }

// flakyOnce returns a fault injector that fails the first GET of each key
// in keys, then heals — the transient-failure pattern retries exist for.
func flakyOnce(keys ...string) opFault {
	seen := map[string]bool{}
	target := map[string]bool{}
	for _, k := range keys {
		target[k] = true
	}
	return func(op objectstore.Op, bucket, key string) error {
		if op == objectstore.OpGet && target[key] && !seen[key] {
			seen[key] = true
			return objectstore.ErrNoSuchKey
		}
		return nil
	}
}

func TestTaskRetryRecoversTransientMapperFault(t *testing.T) {
	w := newJobWorld(lambda.Config{})
	spec := smallWordCountSpec(t, w, 6, 1024)
	spec.TaskRetries = 1
	w.store.SetInjector(flakyOnce(spec.InputKeys[3]))
	cfg := Config{MapperMemMB: 1024, CoordMemMB: 256, ReducerMemMB: 1024, ObjsPerMapper: 1, ObjsPerReducer: 2}
	rep := w.runJob(t, spec, cfg)

	// The failed attempt is still billed: one extra record with an error.
	failed := 0
	for _, r := range rep.Records {
		if r.Err != nil {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("failed records = %d, want exactly the one flaky attempt", failed)
	}
	if len(rep.Records) != rep.Orchestration.TotalLambdas()+1 {
		t.Fatalf("records = %d, want %d (+1 retry)", len(rep.Records), rep.Orchestration.TotalLambdas()+1)
	}
}

func TestTaskRetryRecoversReducerFaults(t *testing.T) {
	w := newJobWorld(lambda.Config{})
	spec := smallWordCountSpec(t, w, 8, 1024)
	spec.TaskRetries = 2
	// Fail the first read of two mapper outputs (step-1 reducer inputs)
	// and of a step-1 output (final-step reducer input).
	w.store.SetInjector(flakyOnce("map/part-00001", "map/part-00005", "red/00/part-00000"))
	cfg := Config{MapperMemMB: 1024, CoordMemMB: 256, ReducerMemMB: 1024, ObjsPerMapper: 2, ObjsPerReducer: 2}
	rep := w.runJob(t, spec, cfg)
	if len(rep.OutputKeys) != 1 {
		t.Fatalf("job did not converge: %v", rep.OutputKeys)
	}
}

func TestZeroRetriesFailFast(t *testing.T) {
	w := newJobWorld(lambda.Config{})
	spec := smallWordCountSpec(t, w, 4, 1024)
	w.store.SetInjector(flakyOnce(spec.InputKeys[0]))
	cfg := Config{MapperMemMB: 1024, CoordMemMB: 256, ReducerMemMB: 1024, ObjsPerMapper: 1, ObjsPerReducer: 2}
	err := w.sched.Run(func(p *simtime.Proc) {
		if _, err := w.driver.Run(p, spec, cfg); err == nil {
			t.Error("fail-fast job should surface the fault")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRetriesExhaustedStillFails(t *testing.T) {
	w := newJobWorld(lambda.Config{})
	spec := smallWordCountSpec(t, w, 4, 1024)
	spec.TaskRetries = 3
	// Permanent fault: never heals.
	w.store.SetInjector(opFault(func(op objectstore.Op, bucket, key string) error {
		if op == objectstore.OpGet && key == spec.InputKeys[1] {
			return objectstore.ErrNoSuchKey
		}
		return nil
	}))
	cfg := Config{MapperMemMB: 1024, CoordMemMB: 256, ReducerMemMB: 1024, ObjsPerMapper: 1, ObjsPerReducer: 2}
	err := w.sched.Run(func(p *simtime.Proc) {
		if _, err := w.driver.Run(p, spec, cfg); err == nil {
			t.Error("permanent fault should fail the job after retries")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 original + 3 retries of the doomed mapper were attempted.
	doomed := 0
	for _, r := range w.pl.Records() {
		if r.Err != nil {
			doomed++
		}
	}
	if doomed != 4 {
		t.Fatalf("failed attempts = %d, want 4", doomed)
	}
}

func TestRetryWorksUnderStepFunctions(t *testing.T) {
	w := newJobWorld(lambda.Config{})
	spec := smallWordCountSpec(t, w, 6, 1024)
	spec.TaskRetries = 1
	spec.Orchestrator = StepFunctions
	w.store.SetInjector(flakyOnce("map/part-00000"))
	cfg := Config{MapperMemMB: 1024, CoordMemMB: 256, ReducerMemMB: 1024, ObjsPerMapper: 2, ObjsPerReducer: 2}
	rep := w.runJob(t, spec, cfg)
	if len(rep.OutputKeys) != 1 {
		t.Fatalf("SF job did not converge: %v", rep.OutputKeys)
	}
}
