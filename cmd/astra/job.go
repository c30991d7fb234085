package main

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"time"

	"astra"

	"astra/internal/api"
	"astra/internal/optimizer"
	"astra/internal/workload"
)

// jobSpec is the job the command plans. The job flags fill it, and a
// -spec file decodes into it under the JSON names below (README.md,
// "Command line"). Orchestrator and Intermediates have no flag.
type jobSpec struct {
	Workload  string  `json:"workload"`
	SizeGB    float64 `json:"size_gb"`
	Objects   int     `json:"objects"`
	Objective string  `json:"objective"`
	// BudgetUSD constrains the time objective, Deadline (Go duration
	// syntax) the cost objective; zero or empty means unconstrained.
	BudgetUSD float64 `json:"budget_usd"`
	Deadline  string  `json:"deadline"`
	Solver    string  `json:"solver"`
	// Orchestrator is coordinator or step-functions; Intermediates is
	// default or cache (a Redis-like ephemeral tier).
	Orchestrator  string `json:"orchestrator"`
	Intermediates string `json:"intermediates"`
	TaskRetries   int    `json:"task_retries"`
}

// The limits an unconstrained objective plans under.
const (
	unconstrainedBudget   = 1e9
	unconstrainedDeadline = 1e6 * time.Hour
)

// loadSpec reads a -spec file strictly, as the planning service reads a
// request body: an unknown field or trailing data is an error.
func loadSpec(path string) (jobSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return jobSpec{}, err
	}
	defer f.Close()
	var j jobSpec
	if err := api.DecodeStrict(f, &j); err != nil {
		return jobSpec{}, fmt.Errorf("spec %s: %w", path, err)
	}
	return j, nil
}

// resolve turns the job into the planner's and the runner's inputs. The
// workload, sizes, goal, deadline and solver resolve as an api.PlanRequest
// does on the wire; the rules on top are the command's own, the same
// for flags and files: only the constraint the goal reads is passed, a
// zero or empty one means unconstrained and a negative one is an error.
func (j jobSpec) resolve() (workload.Job, optimizer.Objective, optimizer.Solver, []astra.RunOption, error) {
	req := api.PlanRequest{
		Workload:   j.Workload,
		NumObjects: j.Objects,
		TotalBytes: int64(j.SizeGB * float64(int64(1)<<30)),
		Objective:  api.ObjectiveSpec{Goal: j.Objective},
		Solver:     j.Solver,
	}
	switch j.Objective {
	case "time":
		req.Objective.BudgetUSD = j.BudgetUSD
	case "cost":
		req.Objective.Deadline = cmp.Or(j.Deadline, "0s")
	default:
		return workload.Job{}, optimizer.Objective{}, 0, nil,
			fmt.Errorf("unknown objective %q (want time or cost)", j.Objective)
	}
	job, obj, solver, err := req.Resolve()
	switch {
	case err != nil:
	case obj.Budget < 0:
		err = fmt.Errorf("budget must be >= 0 (0 = unconstrained), got %v", j.BudgetUSD)
	case obj.Deadline < 0:
		err = fmt.Errorf("deadline must be >= 0 (0 = unconstrained), got %v", obj.Deadline)
	case j.TaskRetries < 0:
		err = fmt.Errorf("task retries must be >= 0, got %d", j.TaskRetries)
	case !slices.Contains([]string{"", "coordinator", "step-functions"}, j.Orchestrator):
		err = fmt.Errorf("unknown orchestrator %q (want coordinator or step-functions)", j.Orchestrator)
	case !slices.Contains([]string{"", "default", "cache"}, j.Intermediates):
		err = fmt.Errorf("unknown intermediates class %q (want default or cache)", j.Intermediates)
	}
	if err != nil {
		return workload.Job{}, optimizer.Objective{}, 0, nil, err
	}
	if obj.Goal == optimizer.MinTimeUnderBudget && obj.Budget == 0 {
		obj.Budget = unconstrainedBudget
	}
	if obj.Goal == optimizer.MinCostUnderDeadline && obj.Deadline == 0 {
		obj.Deadline = unconstrainedDeadline
	}
	opts := []astra.RunOption{astra.WithTaskRetries(j.TaskRetries)}
	if j.Orchestrator == "step-functions" {
		opts = append(opts, astra.WithStepFunctions())
	}
	if j.Intermediates == "cache" {
		opts = append(opts, astra.WithCacheIntermediates())
	}
	return job, obj, solver, opts, nil
}
