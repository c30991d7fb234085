package mapreduce

import (
	"strings"
	"testing"
	"time"

	"astra/internal/lambda"
	"astra/internal/objectstore"
	"astra/internal/pricing"
	"astra/internal/simtime"
	"astra/internal/workload"
)

type jobWorld struct {
	sched  *simtime.Scheduler
	store  *objectstore.Store
	pl     *lambda.Platform
	driver *Driver
}

func newJobWorld(lcfg lambda.Config) *jobWorld {
	sched := simtime.NewScheduler()
	store := objectstore.New(sched, objectstore.Config{
		Bandwidth: 80 << 20, // 80 MiB/s, the default B
		Pricing:   pricing.AWS().Store,
	})
	pl := lambda.New(sched, store, lcfg)
	return &jobWorld{sched: sched, store: store, pl: pl, driver: NewDriver(pl)}
}

func (w *jobWorld) runJob(t *testing.T, spec JobSpec, cfg Config) *Report {
	t.Helper()
	var rep *Report
	err := w.sched.Run(func(p *simtime.Proc) {
		var err error
		rep, err = w.driver.Run(p, spec, cfg)
		if err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	return rep
}

func smallWordCountSpec(t *testing.T, w *jobWorld, numObjects, objectSize int) JobSpec {
	t.Helper()
	job := workload.Job{Profile: workload.WordCount, NumObjects: numObjects, ObjectSize: int64(objectSize)}
	keys, err := workload.SeedConcrete(w.store, "in", job, 42)
	if err != nil {
		t.Fatal(err)
	}
	return JobSpec{Workload: job, Bucket: "in", InputKeys: keys, Mode: Concrete}
}

func TestConcreteWordCountCorrectness(t *testing.T) {
	w := newJobWorld(lambda.Config{})
	spec := smallWordCountSpec(t, w, 10, 4096)
	cfg := Config{MapperMemMB: 1024, CoordMemMB: 1024, ReducerMemMB: 1024, ObjsPerMapper: 2, ObjsPerReducer: 2}

	// Expected counts computed directly from the seeded data.
	want := make(map[string]int64)
	err := w.sched.Run(func(p *simtime.Proc) {
		var all [][]byte
		for _, k := range spec.InputKeys {
			obj, err := w.store.Get(p, "in", k)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, obj.Data)
		}
		for _, data := range all {
			for _, wd := range strings.Fields(string(data)) {
				want[wd]++
			}
		}
		rep, err := w.driver.Run(p, spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.OutputKeys) != 1 {
			t.Fatalf("OutputKeys = %v, want exactly one", rep.OutputKeys)
		}
		out, err := w.store.Get(p, rep.InterBucket, rep.OutputKeys[0])
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]int64)
		if err := parseCounts(out.Data, got); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("got %d distinct words, want %d", len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("count[%q] = %d, want %d", k, got[k], v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReportShapeAndAccounting(t *testing.T) {
	w := newJobWorld(lambda.Config{})
	spec := smallWordCountSpec(t, w, 10, 2048)
	cfg := Config{MapperMemMB: 512, CoordMemMB: 256, ReducerMemMB: 1024, ObjsPerMapper: 2, ObjsPerReducer: 2}
	rep := w.runJob(t, spec, cfg)

	o := rep.Orchestration
	if o.Mappers() != 5 || o.NumSteps() != 3 || o.Reducers() != 6 {
		t.Fatalf("orchestration = %d mappers, %d steps, %d reducers", o.Mappers(), o.NumSteps(), o.Reducers())
	}
	// One record per lambda: 5 mappers + 1 coordinator + 6 reducers.
	if len(rep.Records) != o.TotalLambdas() {
		t.Fatalf("records = %d, want %d", len(rep.Records), o.TotalLambdas())
	}
	// Phase decomposition must tile the completion time exactly.
	sum := rep.Phases.Map + rep.Phases.CoordExclusive + rep.Phases.Reduce
	if diff := rep.JCT - sum; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("JCT %v != Map %v + Coord %v + Reduce %v",
			rep.JCT, rep.Phases.Map, rep.Phases.CoordExclusive, rep.Phases.Reduce)
	}
	if len(rep.Phases.Steps) != o.NumSteps() {
		t.Fatalf("step durations = %d, want %d", len(rep.Phases.Steps), o.NumSteps())
	}
	if rep.Cost.Lambda <= 0 || rep.Cost.Requests <= 0 || rep.Cost.Storage <= 0 {
		t.Fatalf("cost breakdown has non-positive component: %+v", rep.Cost)
	}
	if rep.Cost.Total() != rep.Cost.Lambda+rep.Cost.Requests+rep.Cost.Storage {
		t.Fatal("Total mismatch")
	}
}

func TestRequestCountsMatchModel(t *testing.T) {
	// Eq. 10: mappers make kM GETs + 1 PUT each; the coordinator makes P
	// PUTs; reducers make kR(-ish) GETs + 1 PUT each.
	w := newJobWorld(lambda.Config{})
	spec := smallWordCountSpec(t, w, 10, 1024)
	cfg := Config{MapperMemMB: 1024, CoordMemMB: 1024, ReducerMemMB: 1024, ObjsPerMapper: 2, ObjsPerReducer: 2}

	before := w.store.Metrics()
	rep := w.runJob(t, spec, cfg)
	m := w.store.Metrics().Sub(before)

	o := rep.Orchestration
	// Mapper GETs are the N input objects; every step's reducers fetch
	// exactly the previous step's outputs, the objects the step consumes.
	wantGets := int64(10)
	for p := 0; p < o.NumSteps(); p++ {
		wantGets += int64(o.Step(p).Objects())
	}
	wantPuts := int64(o.Mappers() + o.NumSteps() /* state objects */ + o.Reducers())
	if m.Gets != wantGets {
		t.Fatalf("GETs = %d, want %d", m.Gets, wantGets)
	}
	if m.Puts != wantPuts {
		t.Fatalf("PUTs = %d, want %d", m.Puts, wantPuts)
	}
}

func TestProfiledModeRunsLargeJob(t *testing.T) {
	w := newJobWorld(lambda.Config{DisableTimeout: true})
	job := workload.Sort100GB()
	keys, err := workload.SeedProfiled(w.store, "in", job)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Workload: job, Bucket: "in", InputKeys: keys, Mode: Profiled}
	cfg := Config{MapperMemMB: 1024, CoordMemMB: 256, ReducerMemMB: 1024, ObjsPerMapper: 4, ObjsPerReducer: 8}
	rep := w.runJob(t, spec, cfg)
	if rep.Orchestration.Mappers() != 50 {
		t.Fatalf("mappers = %d, want 50", rep.Orchestration.Mappers())
	}
	if rep.JCT <= 0 {
		t.Fatal("JCT must be positive")
	}
	// Sort's data ratios are 1.0, so the input plus all intermediates must
	// still be at rest: well over the 100 GB input — without the host ever
	// holding those bytes.
	if w.store.StoredBytes() < job.TotalBytes() {
		t.Fatalf("stored = %d, want at least the input size", w.store.StoredBytes())
	}
}

func TestProfiledOutputSizesFollowRatios(t *testing.T) {
	w := newJobWorld(lambda.Config{})
	job := workload.Job{Profile: workload.WordCount, NumObjects: 4, ObjectSize: 10 << 20}
	keys, err := workload.SeedProfiled(w.store, "in", job)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Workload: job, Bucket: "in", InputKeys: keys, Mode: Profiled}
	cfg := Config{MapperMemMB: 1024, CoordMemMB: 1024, ReducerMemMB: 1024, ObjsPerMapper: 1, ObjsPerReducer: 4}
	var finalSize int64
	err = w.sched.Run(func(p *simtime.Proc) {
		rep, err := w.driver.Run(p, spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := w.store.Get(p, rep.InterBucket, rep.OutputKeys[0])
		if err != nil {
			t.Fatal(err)
		}
		finalSize = obj.Size
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 x 10 MB inputs -> mapper out 0.10x each -> 4 MB total; one
	// reducer at the profile ratio.
	perInput := job.ObjectSize // runtime value, so the float conversion is legal
	alpha, beta := job.Profile.MapOutputRatio, job.Profile.ReduceOutputRatio
	want := int64(float64(perInput) * alpha * 4 * beta)
	tol := want / 100
	if finalSize < want-tol || finalSize > want+tol {
		t.Fatalf("final size = %d, want ~%d", finalSize, want)
	}
}

func TestHigherMemoryReducesJCT(t *testing.T) {
	run := func(mem int) time.Duration {
		w := newJobWorld(lambda.Config{})
		spec := smallWordCountSpec(t, w, 10, 64<<10)
		cfg := Config{MapperMemMB: mem, CoordMemMB: mem, ReducerMemMB: mem, ObjsPerMapper: 2, ObjsPerReducer: 2}
		return w.runJob(t, spec, cfg).JCT
	}
	small, large := run(128), run(1536)
	if large >= small {
		t.Fatalf("JCT at 1536 MB (%v) should beat 128 MB (%v)", large, small)
	}
}

func TestDriverRejectsBadInputs(t *testing.T) {
	w := newJobWorld(lambda.Config{})
	job := workload.Job{Profile: workload.WordCount, NumObjects: 4, ObjectSize: 1024}
	keys, _ := workload.SeedConcrete(w.store, "in", job, 1)
	err := w.sched.Run(func(p *simtime.Proc) {
		// Mismatched key count.
		_, err := w.driver.Run(p, JobSpec{Workload: job, Bucket: "in", InputKeys: keys[:2], Mode: Concrete},
			Config{MapperMemMB: 1024, CoordMemMB: 1024, ReducerMemMB: 1024, ObjsPerMapper: 1, ObjsPerReducer: 2})
		if err == nil {
			t.Error("mismatched keys should fail")
		}
		// Invalid memory tier.
		_, err = w.driver.Run(p, JobSpec{Workload: job, Bucket: "in", InputKeys: keys, Mode: Concrete},
			Config{MapperMemMB: 100, CoordMemMB: 1024, ReducerMemMB: 1024, ObjsPerMapper: 1, ObjsPerReducer: 2})
		if err == nil {
			t.Error("invalid memory should fail")
		}
		// Out-of-range parallelism.
		_, err = w.driver.Run(p, JobSpec{Workload: job, Bucket: "in", InputKeys: keys, Mode: Concrete},
			Config{MapperMemMB: 1024, CoordMemMB: 1024, ReducerMemMB: 1024, ObjsPerMapper: 99, ObjsPerReducer: 2})
		if err == nil {
			t.Error("kM > N should fail")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestJobSurvivesConcurrencyThrottling(t *testing.T) {
	sheet := pricing.AWS()
	sheet.Lambda.MaxConcurrency = 3 // far fewer slots than mappers
	w := newJobWorld(lambda.Config{Sheet: sheet})
	spec := smallWordCountSpec(t, w, 12, 1024)
	cfg := Config{MapperMemMB: 1024, CoordMemMB: 1024, ReducerMemMB: 1024, ObjsPerMapper: 1, ObjsPerReducer: 3}
	rep := w.runJob(t, spec, cfg)
	if rep.PeakConcurrency > 3 {
		t.Fatalf("peak concurrency %d exceeded the limit", rep.PeakConcurrency)
	}
	if rep.JCT <= 0 {
		t.Fatal("job should still complete")
	}
}

func TestMapperFailurePropagates(t *testing.T) {
	w := newJobWorld(lambda.Config{})
	spec := smallWordCountSpec(t, w, 4, 1024)
	// Sabotage one input object after seeding.
	w.store.SetInjector(opFault(func(op objectstore.Op, bucket, key string) error {
		if op == objectstore.OpGet && key == spec.InputKeys[2] {
			return objectstore.ErrNoSuchKey
		}
		return nil
	}))
	cfg := Config{MapperMemMB: 1024, CoordMemMB: 1024, ReducerMemMB: 1024, ObjsPerMapper: 1, ObjsPerReducer: 2}
	err := w.sched.Run(func(p *simtime.Proc) {
		_, err := w.driver.Run(p, spec, cfg)
		if err == nil {
			t.Error("expected mapper failure to surface")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWarmContainersReusedAcrossReduceSteps(t *testing.T) {
	// With cold starts enabled, step-1 reducers boot cold; later steps
	// reuse the warm containers step 1 left behind (same function).
	w := newJobWorld(lambda.Config{ColdStart: 300 * time.Millisecond, KeepAlive: time.Hour})
	spec := smallWordCountSpec(t, w, 10, 1024)
	cfg := Config{MapperMemMB: 1024, CoordMemMB: 1024, ReducerMemMB: 1024, ObjsPerMapper: 2, ObjsPerReducer: 2}
	rep := w.runJob(t, spec, cfg)

	coldByStep := map[string][]bool{}
	for _, r := range rep.Records {
		if strings.HasPrefix(r.Label, "red-") {
			step := strings.Split(r.Label, "-")[1]
			coldByStep[step] = append(coldByStep[step], r.Cold)
		}
	}
	for _, cold := range coldByStep["0"] {
		if !cold {
			t.Fatal("step-1 reducers should all be cold")
		}
	}
	for _, cold := range coldByStep["1"] {
		if cold {
			t.Fatal("step-2 reducers should reuse step-1's warm containers")
		}
	}
}

func TestTwoJobsOnOnePlatform(t *testing.T) {
	w := newJobWorld(lambda.Config{})
	spec := smallWordCountSpec(t, w, 6, 1024)
	cfg := Config{MapperMemMB: 1024, CoordMemMB: 1024, ReducerMemMB: 1024, ObjsPerMapper: 2, ObjsPerReducer: 2}
	err := w.sched.Run(func(p *simtime.Proc) {
		r1, err := w.driver.Run(p, spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := w.driver.Run(p, spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r1.InterBucket == r2.InterBucket {
			t.Error("jobs must get distinct intermediate buckets")
		}
		// Same config, same input: identical duration (warm starts are the
		// only difference and cold start is 0 by default here).
		if r1.JCT != r2.JCT {
			t.Errorf("JCT differs across identical jobs: %v vs %v", r1.JCT, r2.JCT)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
