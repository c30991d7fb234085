package spec

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"astra/internal/mapreduce"
	"astra/internal/optimizer"
)

const validDoc = `{
  "workload": "query",
  "size_gb": 1.5,
  "objects": 12,
  "objective": "cost",
  "deadline": "3m",
  "solver": "csp",
  "orchestrator": "step-functions",
  "intermediates": "cache",
  "task_retries": 2
}`

func TestParseValid(t *testing.T) {
	f, err := Parse([]byte(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	job, err := f.Job()
	if err != nil {
		t.Fatal(err)
	}
	if job.Profile.Name != "query" || job.NumObjects != 12 {
		t.Fatalf("job = %+v", job)
	}
	wantObj := int64(1.5 * float64(int64(1)<<30) / 12)
	if job.ObjectSize != wantObj {
		t.Fatalf("object size = %d, want %d", job.ObjectSize, wantObj)
	}
	obj, err := f.ObjectiveValue()
	if err != nil {
		t.Fatal(err)
	}
	if obj.Goal != optimizer.MinCostUnderDeadline || obj.Deadline != 3*time.Minute {
		t.Fatalf("objective = %+v", obj)
	}
	s, err := f.SolverValue()
	if err != nil || s != optimizer.Auto {
		t.Fatalf("solver = %v, %v", s, err)
	}
	var js mapreduce.JobSpec
	f.ApplyExecution(&js)
	if js.Orchestrator != mapreduce.StepFunctions || js.IntermediateClass == nil || js.TaskRetries != 2 {
		t.Fatalf("execution options = %+v", js)
	}
}

func TestParseDefaults(t *testing.T) {
	f, err := Parse([]byte(`{"workload":"wordcount","size_gb":1,"objects":10,"objective":"time"}`))
	if err != nil {
		t.Fatal(err)
	}
	obj, err := f.ObjectiveValue()
	if err != nil {
		t.Fatal(err)
	}
	if obj.Goal != optimizer.MinTimeUnderBudget || obj.Budget < 1e8 {
		t.Fatalf("unconstrained budget = %+v", obj)
	}
	s, err := f.SolverValue()
	if err != nil || s != optimizer.Auto {
		t.Fatalf("default solver = %v", s)
	}
	var js mapreduce.JobSpec
	f.ApplyExecution(&js)
	if js.Orchestrator != mapreduce.CoordinatorLambda || js.IntermediateClass != nil {
		t.Fatalf("defaults = %+v", js)
	}
}

func TestParseRejectsBadDocuments(t *testing.T) {
	bad := []string{
		`not json`,
		`{"workload":"zzz","size_gb":1,"objects":1,"objective":"time"}`,
		`{"workload":"sort","size_gb":0,"objects":1,"objective":"time"}`,
		`{"workload":"sort","size_gb":1,"objects":0,"objective":"time"}`,
		`{"workload":"sort","size_gb":1,"objects":1,"objective":"speed"}`,
		`{"workload":"sort","size_gb":1,"objects":1,"objective":"cost","deadline":"soon"}`,
		`{"workload":"sort","size_gb":1,"objects":1,"objective":"time","solver":"magic"}`,
		`{"workload":"sort","size_gb":1,"objects":1,"objective":"time","orchestrator":"human"}`,
		`{"workload":"sort","size_gb":1,"objects":1,"objective":"time","intermediates":"tape"}`,
		`{"workload":"sort","size_gb":1,"objects":1,"objective":"time","task_retries":-1}`,
	}
	for i, doc := range bad {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("case %d should fail: %s", i, doc)
		}
	}
}

func TestLoadFromDisk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.json")
	if err := os.WriteFile(path, []byte(validDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Workload != "query" {
		t.Fatalf("loaded = %+v", f)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file should fail")
	}
}
