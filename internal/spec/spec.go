// Package spec defines the JSON job-specification format the astra CLI
// accepts: a declarative description of the workload, the user objective
// and execution options — the "user submits a job with flexibly-specified
// requirements" interface of the paper, as a file.
//
//	{
//	  "workload":  "query",
//	  "size_gb":   25.4,
//	  "objects":   202,
//	  "objective": "cost",
//	  "deadline":  "3m",
//	  "solver":    "auto",
//	  "orchestrator": "coordinator",
//	  "intermediates": "default",
//	  "task_retries": 1
//	}
package spec

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"astra/internal/mapreduce"
	"astra/internal/objectstore"
	"astra/internal/optimizer"
	"astra/internal/pricing"
	"astra/internal/workload"
)

// File is the declarative job specification.
type File struct {
	// Workload names a profile: wordcount, sort, query, grep,
	// spark-wordcount, spark-sql.
	Workload string `json:"workload"`
	// SizeGB is the total input size.
	SizeGB float64 `json:"size_gb"`
	// Objects is the input object count.
	Objects int `json:"objects"`
	// Objective is "time" (minimize JCT under BudgetUSD) or "cost"
	// (minimize cost under Deadline).
	Objective string `json:"objective"`
	// BudgetUSD constrains the time objective; zero means unconstrained.
	BudgetUSD float64 `json:"budget_usd,omitempty"`
	// Deadline constrains the cost objective (Go duration syntax); empty
	// means unconstrained.
	Deadline string `json:"deadline,omitempty"`
	// Solver is auto (default; csp names it too) or algorithm1; brute
	// force is Go API only.
	Solver string `json:"solver,omitempty"`
	// Orchestrator is coordinator (default) or step-functions.
	Orchestrator string `json:"orchestrator,omitempty"`
	// Intermediates is default or cache (a Redis-like ephemeral tier).
	Intermediates string `json:"intermediates,omitempty"`
	// TaskRetries re-invokes failed mappers/reducers.
	TaskRetries int `json:"task_retries,omitempty"`
}

// Parse decodes and validates a spec document.
func Parse(data []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// Load reads and parses a spec file from disk.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return Parse(data)
}

// Validate checks the document against the accepted vocabulary.
func (f *File) Validate() error {
	if _, err := workload.ByName(f.Workload); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if f.SizeGB <= 0 {
		return fmt.Errorf("spec: size_gb must be positive")
	}
	if f.Objects <= 0 {
		return fmt.Errorf("spec: objects must be positive")
	}
	switch f.Objective {
	case "time", "cost":
	default:
		return fmt.Errorf("spec: objective must be %q or %q, got %q", "time", "cost", f.Objective)
	}
	if f.Deadline != "" {
		if _, err := time.ParseDuration(f.Deadline); err != nil {
			return fmt.Errorf("spec: bad deadline: %w", err)
		}
	}
	if _, err := f.SolverValue(); err != nil {
		return err
	}
	switch f.Orchestrator {
	case "", "coordinator", "step-functions":
	default:
		return fmt.Errorf("spec: unknown orchestrator %q", f.Orchestrator)
	}
	switch f.Intermediates {
	case "", "default", "cache":
	default:
		return fmt.Errorf("spec: unknown intermediates class %q", f.Intermediates)
	}
	if f.TaskRetries < 0 {
		return fmt.Errorf("spec: task_retries must be non-negative")
	}
	return nil
}

// Job materializes the workload description.
func (f *File) Job() (workload.Job, error) {
	pf, err := workload.ByName(f.Workload)
	if err != nil {
		return workload.Job{}, err
	}
	total := int64(f.SizeGB * float64(int64(1)<<30))
	return workload.Job{
		Profile:    pf,
		NumObjects: f.Objects,
		ObjectSize: total / int64(f.Objects),
	}, nil
}

// ObjectiveValue materializes the optimization objective; unconstrained
// dimensions get effectively-infinite limits.
func (f *File) ObjectiveValue() (optimizer.Objective, error) {
	switch f.Objective {
	case "time":
		obj := optimizer.Objective{Goal: optimizer.MinTimeUnderBudget, Budget: pricing.USD(f.BudgetUSD)}
		if f.BudgetUSD <= 0 {
			obj.Budget = 1e9
		}
		return obj, nil
	case "cost":
		obj := optimizer.Objective{Goal: optimizer.MinCostUnderDeadline}
		if f.Deadline == "" {
			obj.Deadline = 1e6 * time.Hour
			return obj, nil
		}
		d, err := time.ParseDuration(f.Deadline)
		if err != nil {
			return optimizer.Objective{}, err
		}
		obj.Deadline = d
		return obj, nil
	}
	return optimizer.Objective{}, fmt.Errorf("spec: objective %q", f.Objective)
}

// SolverValue materializes the solver choice (Auto by default).
func (f *File) SolverValue() (optimizer.Solver, error) {
	s, err := optimizer.ParseSolver(f.Solver)
	if err != nil {
		return 0, fmt.Errorf("spec: %w", err)
	}
	return s, nil
}

// ApplyExecution folds the execution options into a job spec.
func (f *File) ApplyExecution(s *mapreduce.JobSpec) {
	if f.Orchestrator == "step-functions" {
		s.Orchestrator = mapreduce.StepFunctions
	}
	if f.Intermediates == "cache" {
		cache := objectstore.CacheClass()
		s.IntermediateClass = &cache
	}
	s.TaskRetries = f.TaskRetries
}
