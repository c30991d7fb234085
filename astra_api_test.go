package astra

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"astra/internal/model"
)

func seedJobs() []Job {
	return []Job{WordCount1GB(), WordCount10GB(), WordCount20GB(), Sort100GB(), Query25GB()}
}

// TestParallelPlanMatchesSerialAcrossSeedWorkloads is the top-level
// determinism guarantee: for every seed workload and both objective
// goals, the parallel engine chooses the bit-identical configuration the
// serial engine does.
func TestParallelPlanMatchesSerialAcrossSeedWorkloads(t *testing.T) {
	for _, job := range seedJobs() {
		for _, obj := range []Objective{MinTime(1e9), MinCost(1e6 * time.Hour)} {
			serial, err := Plan(job, obj, WithParallelism(1))
			if err != nil {
				t.Fatalf("%s %v serial: %v", job.Profile.Name, obj.Goal, err)
			}
			par, err := Plan(job, obj, WithParallelism(8))
			if err != nil {
				t.Fatalf("%s %v parallel: %v", job.Profile.Name, obj.Goal, err)
			}
			if par.Config != serial.Config {
				t.Fatalf("%s %v: parallel plan %v, serial plan %v",
					job.Profile.Name, obj.Goal, par.Config, serial.Config)
			}
		}
	}
}

func TestPlanRejectsMalformedObjectives(t *testing.T) {
	job := WordCount1GB()
	if _, err := Plan(job, MinTime(-0.01)); !errors.Is(err, ErrInvalidObjective) {
		t.Fatalf("negative budget: err = %v, want ErrInvalidObjective", err)
	}
	if _, err := Plan(job, MinCost(0)); !errors.Is(err, ErrInvalidObjective) {
		t.Fatalf("zero deadline: err = %v, want ErrInvalidObjective", err)
	}
	if _, err := Plan(job, MinCost(-time.Minute)); !errors.Is(err, ErrInvalidObjective) {
		t.Fatalf("negative deadline: err = %v, want ErrInvalidObjective", err)
	}
}

func TestPlanReportsInfeasibility(t *testing.T) {
	// A zero budget is well-formed but unsatisfiable: every plan costs
	// something.
	if _, err := Plan(WordCount1GB(), MinTime(0)); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestWithPlanCacheShared(t *testing.T) {
	job := WordCount1GB()
	cache := NewPlanCache()
	first, err := Plan(job, MinTime(1e9), WithPlanCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if first.Search.CacheMisses == 0 {
		t.Fatal("first plan never consulted the cache")
	}
	again, err := Plan(job, MinTime(1e9), WithPlanCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if again.Search.CacheMisses != 0 || again.Search.CacheHits == 0 {
		t.Fatalf("re-plan recomputed predictions: %d misses, %d hits", again.Search.CacheMisses, again.Search.CacheHits)
	}
}

// TestPlanContextCancelPrompt verifies a cancelled search returns
// ctx.Err() quickly and leaves no goroutines behind.
func TestPlanContextCancelPrompt(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := PlanContext(ctx, Sort100GB(), MinCost(1e6*time.Hour), WithParallelism(4))
	elapsed := time.Since(start)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled or nil (search may win the race)", err)
	}
	if errors.Is(err, context.Canceled) && elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// The pool always joins its workers before returning; give the runtime
	// a moment to retire them.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after cancellation", before, after)
	}
}

func TestPlanContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PlanContext(ctx, WordCount1GB(), MinTime(1e9)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunContextCancel(t *testing.T) {
	job := WordCount1GB()
	plan, err := Plan(job, MinTime(1e9))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, job, plan.Config); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The same inputs still run to completion with a live context.
	rep, err := RunContext(context.Background(), job, plan.Config)
	if err != nil {
		t.Fatal(err)
	}
	if rep.JCT <= 0 {
		t.Fatalf("report JCT = %v", rep.JCT)
	}
}

func TestFrontierContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FrontierContext(ctx, WordCount1GB(), WithFrontierSize(8)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestParallelFrontierMatchesSerial pins the frontier sweep's determinism
// contract at the public API.
func TestParallelFrontierMatchesSerial(t *testing.T) {
	job := WordCount1GB()
	serial, err := FrontierContext(context.Background(), job, WithFrontierSize(8), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := FrontierContext(context.Background(), job, WithFrontierSize(8), WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Points) != len(par.Points) {
		t.Fatalf("frontier sizes: serial %d, parallel %d", len(serial.Points), len(par.Points))
	}
	for i := range serial.Points {
		if serial.Points[i].Config != par.Points[i].Config {
			t.Fatalf("frontier point %d: serial %v, parallel %v", i, serial.Points[i].Config, par.Points[i].Config)
		}
	}
}

// TestFrontierReportsInfeasibility: the frontier boundary must surface
// the exported sentinel, not leak a bare internal error.
func TestFrontierReportsInfeasibility(t *testing.T) {
	job := WordCount1GB()
	params := model.DefaultParams(job)
	// A single input object over the store's 5 TB object limit makes
	// every orchestration infeasible, so the config graph is empty.
	params.Job.ObjectSize = 6 << 40
	if _, err := Frontier(job, WithParams(params)); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestPlanPipelineContextCancelled(t *testing.T) {
	p := Pipeline{
		Stages: []PipelineStage{
			{Name: "filter", Profile: Grep},
			{Name: "aggregate", Profile: WordCount},
		},
		InputObjects: 16, InputBytes: 16 << 20,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PlanPipelineContext(ctx, p, MinTime(1e9)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The same pipeline plans fine with a live context and matches the
	// non-context entry point.
	got, err := PlanPipelineContext(context.Background(), p, MinTime(1e9), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	want, err := PlanPipeline(p, MinTime(1e9))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Stages) != len(want.Stages) {
		t.Fatalf("stage counts differ: %d vs %d", len(got.Stages), len(want.Stages))
	}
	for i := range got.Stages {
		if got.Stages[i].Config != want.Stages[i].Config {
			t.Fatalf("stage %d: %v vs %v", i, got.Stages[i].Config, want.Stages[i].Config)
		}
	}
}
