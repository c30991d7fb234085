// Package pipeline extends Astra from single jobs to multi-stage
// analytics pipelines — the "other data analytics workloads which are
// directly in or convertible to the MapReduce form" of the paper's
// discussion section, and the DAG-of-jobs shape its introduction
// motivates. A pipeline is a chain of MapReduce stages: each stage's
// final objects become the next stage's input.
//
// Planning generalizes the paper's single-job optimization: each stage's
// configuration space is reduced to a Pareto frontier of (time, cost)
// plans with the exact model, frontiers are composed stage by stage with
// dominance pruning (a resource-constrained shortest path over the stage
// chain), and the global budget or deadline selects the best composite —
// so a budget is *allocated* across stages rather than split evenly.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"astra/internal/mapreduce"
	"astra/internal/model"
	"astra/internal/optimizer"
	"astra/internal/pricing"
	"astra/internal/workload"
)

// Stage is one MapReduce phase of the pipeline.
type Stage struct {
	// Name labels the stage in plans and reports.
	Name string
	// Profile supplies the stage's compute density and data ratios.
	Profile workload.Profile
}

// Pipeline is an ordered chain of stages with an external input.
type Pipeline struct {
	Stages []Stage
	// Input describes the first stage's input objects.
	InputObjects int
	InputBytes   int64 // total
}

// Validate reports whether the pipeline is well-formed.
func (pl Pipeline) Validate() error {
	if len(pl.Stages) == 0 {
		return fmt.Errorf("pipeline: no stages")
	}
	if pl.InputObjects <= 0 || pl.InputBytes <= 0 {
		return fmt.Errorf("pipeline: input must be positive")
	}
	for i, st := range pl.Stages {
		if err := st.Profile.Validate(); err != nil {
			return fmt.Errorf("pipeline stage %d (%s): %w", i, st.Name, err)
		}
	}
	return nil
}

// stageJobs derives each stage's workload.Job from the pipeline input:
// stage i+1 consumes stage i's final objects. Object counts follow the
// chosen configurations, so jobs are derived lazily during search from a
// per-stage (inputObjects, inputBytes) pair.
type stageIO struct {
	objects int
	bytes   int64
}

// outputOf computes a stage's output shape under a configuration.
func outputOf(pf workload.Profile, in stageIO, cfg mapreduce.Config) (stageIO, error) {
	orch, err := mapreduce.OrchestrateFor(pf, in.objects, cfg.ObjsPerMapper, cfg.ObjsPerReducer)
	if err != nil {
		return stageIO{}, err
	}
	outObjects := orch.Step(orch.NumSteps() - 1).Count()
	outBytes := float64(in.bytes) * pf.MapOutputRatio
	for range orch.NumSteps() {
		outBytes *= pf.ReduceOutputRatio
	}
	if outBytes < 1 {
		outBytes = 1
	}
	return stageIO{objects: outObjects, bytes: int64(outBytes)}, nil
}

// Candidate is one Pareto-optimal stage plan.
type Candidate struct {
	Config mapreduce.Config
	Pred   model.Prediction
	Out    stageIO
}

// StagePlan is the chosen plan for one stage.
type StagePlan struct {
	Stage  string
	Config mapreduce.Config
	Pred   model.Prediction
}

// Plan is the composite pipeline plan.
type Plan struct {
	Stages []StagePlan
	// TotalSec and TotalCost are the predicted end-to-end values.
	TotalSec  float64
	TotalCost pricing.USD
}

// JCT reports the predicted end-to-end completion time.
func (p Plan) JCT() time.Duration { return time.Duration(p.TotalSec * float64(time.Second)) }

// Planner searches composite plans.
type Planner struct {
	// Params template: Job is overwritten per stage; everything else
	// (sheet, bandwidth, latencies, speed) applies pipeline-wide.
	Params model.Params
	// Parallelism bounds the per-stage frontier sweeps' worker pool
	// (0 = all cores, 1 = serial). Plans are identical at every setting.
	Parallelism int
	// Cache memoizes model predictions across every stage sweep. Left
	// nil, a private cache is created on first use, so stages with the
	// same derived parameterization share evaluations.
	Cache *model.PredictionCache
	// Templates shares frozen stage-DAG builds across every stage sweep.
	// Left nil, a private cache is created on first use; set it to share
	// builds across planner instances, so pipelines with recurring stage
	// shapes (and concurrent tenants planning the same pipeline) build
	// each distinct shape's DAG once.
	Templates *optimizer.TemplateCache
}

// NewPlanner creates a pipeline planner from a parameter template.
func NewPlanner(params model.Params) *Planner { return &Planner{Params: params} }

// cache returns the shared prediction cache, creating one on demand.
func (pl *Planner) cache() *model.PredictionCache {
	if pl.Cache == nil {
		pl.Cache = model.NewPredictionCache()
	}
	return pl.Cache
}

// templates returns the shared template cache, creating one on demand.
func (pl *Planner) templates() *optimizer.TemplateCache {
	if pl.Templates == nil {
		pl.Templates = optimizer.NewTemplateCache(0)
	}
	return pl.Templates
}

// stageFrontier computes a Pareto frontier of configurations for one
// stage with an optimizer.Planner sweep, annotating each point with the
// stage's output shape for chaining. Every stage sweep shares the
// planner's prediction and template caches, so repeated stage shapes
// reuse their exact-model evaluations and their DAG.
func (pl *Planner) stageFrontier(ctx context.Context, pf workload.Profile, in stageIO) ([]Candidate, error) {
	params := pl.Params
	params.Job = workload.Job{
		Profile:    pf,
		NumObjects: in.objects,
		ObjectSize: maxInt64(in.bytes/int64(in.objects), 1),
	}
	sp := &optimizer.Planner{Params: params, Parallelism: pl.Parallelism, Cache: pl.cache(), Templates: pl.templates()}
	res, err := sp.Frontier(ctx, optimizer.DefaultFrontierSize, nil)
	if err != nil {
		return nil, fmt.Errorf("pipeline: stage profile %q: %w", pf.Name, err)
	}
	var front []Candidate
	for _, pt := range res.Points {
		out, err := outputOf(pf, in, pt.Config)
		if err != nil {
			continue
		}
		front = append(front, Candidate{Config: pt.Config, Pred: pt.Pred, Out: out})
	}
	if len(front) == 0 {
		return nil, fmt.Errorf("pipeline: no feasible configuration for stage profile %q", pf.Name)
	}
	return front, nil
}

// composite is a partial pipeline plan during the stage-chain search.
type composite struct {
	stages []StagePlan
	sec    float64
	cost   float64
	out    stageIO
}

// Plan searches the composite space under a global objective; it is
// PlanContext with a background context.
func (pl *Planner) Plan(p Pipeline, obj optimizer.Objective) (*Plan, error) {
	return pl.PlanContext(context.Background(), p, obj)
}

// PlanContext searches the composite space under a global objective,
// honoring cancellation on ctx. Because later stages' inputs depend on
// earlier stages' configurations, the search walks the chain keeping a
// Pareto set of composites (label correcting over the stage DAG).
func (pl *Planner) PlanContext(ctx context.Context, p Pipeline, obj optimizer.Objective) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := obj.Validate(); err != nil {
		return nil, err
	}
	frontier := []composite{{out: stageIO{objects: p.InputObjects, bytes: p.InputBytes}}}
	for _, st := range p.Stages {
		// Group current composites by their output shape so each distinct
		// stage input computes its candidate frontier once.
		type key struct {
			objects int
			bytes   int64
		}
		cache := map[key][]Candidate{}
		var next []composite
		for _, comp := range frontier {
			k := key{comp.out.objects, comp.out.bytes}
			cands, ok := cache[k]
			if !ok {
				var err error
				cands, err = pl.stageFrontier(ctx, st.Profile, comp.out)
				if err != nil {
					return nil, fmt.Errorf("stage %q: %w", st.Name, err)
				}
				cache[k] = cands
			}
			for _, c := range cands {
				next = append(next, composite{
					stages: append(append([]StagePlan{}, comp.stages...), StagePlan{
						Stage:  st.Name,
						Config: c.Config,
						Pred:   c.Pred,
					}),
					sec:  comp.sec + c.Pred.TotalSec(),
					cost: comp.cost + float64(c.Pred.TotalCost()),
					out:  c.Out,
				})
			}
		}
		// Each stage sweeps DefaultFrontierSize points; the composite
		// set keeps at most the square of that.
		frontier = pruneComposites(next, optimizer.DefaultFrontierSize*optimizer.DefaultFrontierSize)
		if len(frontier) == 0 {
			return nil, optimizer.ErrNoFeasiblePlan
		}
	}

	best, found := composite{}, false
	for _, comp := range frontier {
		switch obj.Goal {
		case optimizer.MinTimeUnderBudget:
			if comp.cost <= float64(obj.Budget) && (!found || comp.sec < best.sec) {
				best, found = comp, true
			}
		case optimizer.MinCostUnderDeadline:
			if comp.sec <= obj.Deadline.Seconds() && (!found || comp.cost < best.cost) {
				best, found = comp, true
			}
		}
	}
	if !found {
		return nil, optimizer.ErrNoFeasiblePlan
	}
	return &Plan{
		Stages:    best.stages,
		TotalSec:  best.sec,
		TotalCost: pricing.USD(best.cost),
	}, nil
}

// pruneComposites keeps the Pareto front of composites (by sec, cost),
// capped at limit entries (keeping a time-ordered spread if over).
func pruneComposites(comps []composite, limit int) []composite {
	var front []composite
	for i, c := range comps {
		dominated := false
		for j, o := range comps {
			if i == j {
				continue
			}
			if o.sec <= c.sec && o.cost <= c.cost && (o.sec < c.sec || o.cost < c.cost) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, c)
		}
	}
	if len(front) <= limit {
		return front
	}
	// Keep an even spread along the time axis.
	sortBySec(front)
	kept := make([]composite, 0, limit)
	step := float64(len(front)-1) / float64(limit-1)
	prev := -1
	for i := 0; i < limit; i++ {
		idx := int(float64(i) * step)
		if idx == prev {
			continue
		}
		prev = idx
		kept = append(kept, front[idx])
	}
	return kept
}

func sortBySec(cs []composite) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].sec < cs[j-1].sec; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
