package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"astra/internal/mapreduce"
	"astra/internal/optimizer"
)

// writeSpec writes a -spec document to a fresh file and returns its path.
func writeSpec(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "job.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSpecMatchesFlags: a spec file and the flags that say the same thing
// print byte-identical -json output, executed run included.
func TestSpecMatchesFlags(t *testing.T) {
	const job = `"workload":"wordcount","size_gb":0.05,"objects":8`
	flagJob := []string{"-workload", "wordcount", "-size-gb", "0.05", "-objects", "8"}
	for _, tc := range []struct {
		name  string
		spec  string
		flags []string
	}{
		{"budget 0 is unconstrained",
			`{` + job + `,"objective":"time","budget_usd":0,"task_retries":2}`,
			[]string{"-objective", "time", "-budget", "0"}},
		{"budget",
			`{` + job + `,"objective":"time","budget_usd":0.01,"task_retries":2}`,
			[]string{"-objective", "time", "-budget", "0.01"}},
		{"deadline 0s is unconstrained",
			`{` + job + `,"objective":"cost","deadline":"0s","task_retries":2}`,
			[]string{"-objective", "cost", "-deadline", "0"}},
		{"empty deadline is unconstrained",
			`{` + job + `,"objective":"cost","deadline":"","task_retries":2}`,
			[]string{"-objective", "cost"}},
		{"cost with a deadline",
			`{` + job + `,"objective":"cost","deadline":"3m","task_retries":2}`,
			[]string{"-objective", "cost", "-deadline", "3m"}},
		{"cost ignores the budget",
			`{` + job + `,"objective":"cost","budget_usd":5,"deadline":"3m","task_retries":2}`,
			[]string{"-objective", "cost", "-budget", "5", "-deadline", "3m"}},
		{"default orchestrator and intermediates",
			`{` + job + `,"objective":"time","solver":"csp","orchestrator":"coordinator","intermediates":"default","task_retries":2}`,
			[]string{"-objective", "time", "-solver", "csp"}},
	} {
		var fromSpec, fromFlags bytes.Buffer
		if err := run(context.Background(), []string{"-spec", writeSpec(t, tc.spec), "-run", "-json"}, &fromSpec); err != nil {
			t.Fatalf("%s: spec: %v", tc.name, err)
		}
		args := append(append(append([]string{}, flagJob...), tc.flags...), "-run", "-json")
		if err := run(context.Background(), args, &fromFlags); err != nil {
			t.Fatalf("%s: flags: %v", tc.name, err)
		}
		if fromSpec.String() != fromFlags.String() {
			t.Errorf("%s: spec and flags differ:\nspec:  %s\nflags: %s", tc.name, fromSpec.String(), fromFlags.String())
		}
	}
}

// TestSpecRejectsLikeFlags: a spec with an unknown field or trailing data
// fails, as a request body with them does; a negative budget or deadline
// fails with the error the flag gets.
func TestSpecRejectsLikeFlags(t *testing.T) {
	const job = `"workload":"wordcount","size_gb":0.05,"objects":8`
	flagJob := []string{"-workload", "wordcount", "-size-gb", "0.05", "-objects", "8"}
	for _, tc := range []struct {
		name  string
		spec  string
		flags []string // nil: no flag says it
	}{
		{"unknown field", `{` + job + `,"objective":"time","budget":1}`, nil},
		{"trailing data", `{` + job + `,"objective":"time"} {}`, nil},
		{"negative budget", `{` + job + `,"objective":"time","budget_usd":-0.01}`, []string{"-objective", "time", "-budget", "-0.01"}},
		{"negative deadline", `{` + job + `,"objective":"cost","deadline":"-1m"}`, []string{"-objective", "cost", "-deadline", "-1m"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			specErr := run(context.Background(), []string{"-spec", writeSpec(t, tc.spec)}, &bytes.Buffer{})
			if specErr == nil {
				t.Fatalf("%s: accepted", tc.spec)
			}
			if tc.flags == nil {
				return
			}
			flagErr := run(context.Background(), append(append([]string{}, flagJob...), tc.flags...), &bytes.Buffer{})
			if flagErr == nil || specErr.Error() != flagErr.Error() {
				t.Fatalf("spec err %q, flag err %v; want the same error", specErr, flagErr)
			}
		})
	}
}

// TestSpecResolvesFullDocument pins what a spec setting every field
// resolves to.
func TestSpecResolvesFullDocument(t *testing.T) {
	j, err := loadSpec(writeSpec(t, `{
	  "workload": "query", "size_gb": 1.5, "objects": 12,
	  "objective": "cost", "deadline": "3m", "solver": "csp",
	  "orchestrator": "step-functions", "intermediates": "cache", "task_retries": 2
	}`))
	if err != nil {
		t.Fatal(err)
	}
	job, obj, solver, opts, err := j.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(1.5 * float64(int64(1)<<30) / 12); job.Profile.Name != "query" || job.NumObjects != 12 || job.ObjectSize != want {
		t.Fatalf("job = %+v, want query, 12 objects of %d bytes", job, want)
	}
	if obj.Goal != optimizer.MinCostUnderDeadline || obj.Deadline != 3*time.Minute || solver != optimizer.Auto {
		t.Fatalf("objective %+v, solver %v", obj, solver)
	}
	var js mapreduce.JobSpec
	for _, o := range opts {
		o(&js)
	}
	if js.Orchestrator != mapreduce.StepFunctions || js.IntermediateClass == nil || js.TaskRetries != 2 {
		t.Fatalf("execution options = %+v", js)
	}
}

// TestSpecResolvesDefaults: a minimal spec gets an unconstrained budget,
// the auto solver, the coordinator and the object store.
func TestSpecResolvesDefaults(t *testing.T) {
	j, err := loadSpec(writeSpec(t, `{"workload":"wordcount","size_gb":1,"objects":10,"objective":"time"}`))
	if err != nil {
		t.Fatal(err)
	}
	_, obj, solver, opts, err := j.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if obj.Goal != optimizer.MinTimeUnderBudget || obj.Budget != unconstrainedBudget || solver != optimizer.Auto {
		t.Fatalf("defaults: objective %+v, solver %v", obj, solver)
	}
	js := mapreduce.JobSpec{TaskRetries: 5}
	for _, o := range opts {
		o(&js)
	}
	if js.Orchestrator != mapreduce.CoordinatorLambda || js.IntermediateClass != nil || js.TaskRetries != 0 {
		t.Fatalf("default execution options = %+v", js)
	}
}

// TestSpecRejectsBadDocuments: a spec with any field outside the accepted
// vocabulary fails.
func TestSpecRejectsBadDocuments(t *testing.T) {
	for _, doc := range []string{
		`not json`,
		`{"workload":"zzz","size_gb":1,"objects":1,"objective":"time"}`,
		`{"workload":"sort","size_gb":0,"objects":1,"objective":"time"}`,
		`{"workload":"sort","size_gb":1,"objects":0,"objective":"time"}`,
		`{"workload":"sort","size_gb":1,"objects":1,"objective":"speed"}`,
		`{"workload":"sort","size_gb":1,"objects":1,"objective":"cost","deadline":"soon"}`,
		`{"workload":"sort","size_gb":1,"objects":1,"objective":"time","solver":"magic"}`,
		`{"workload":"sort","size_gb":1,"objects":1,"objective":"time","solver":"brute"}`,
		`{"workload":"sort","size_gb":1,"objects":1,"objective":"time","orchestrator":"human"}`,
		`{"workload":"sort","size_gb":1,"objects":1,"objective":"time","intermediates":"tape"}`,
		`{"workload":"sort","size_gb":1,"objects":1,"objective":"time","task_retries":-1}`,
	} {
		if err := run(context.Background(), []string{"-spec", writeSpec(t, doc)}, io.Discard); err == nil {
			t.Errorf("%s: accepted", doc)
		}
	}
}

// TestLoadSpecFromDisk: loadSpec reads the file it is given and fails on
// a missing one.
func TestLoadSpecFromDisk(t *testing.T) {
	path := writeSpec(t, `{"workload":"query","size_gb":1.5,"objects":12,"objective":"cost","deadline":"3m"}`)
	j, err := loadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.Workload != "query" || j.SizeGB != 1.5 || j.Objects != 12 || j.Objective != "cost" || j.Deadline != "3m" {
		t.Fatalf("loaded = %+v", j)
	}
	if _, err := loadSpec(filepath.Join(filepath.Dir(path), "missing.json")); err == nil {
		t.Fatal("missing file should fail")
	}
}
