package pipeline

import (
	"context"
	"fmt"
	"time"

	"astra/internal/mapreduce"
	"astra/internal/model"
	"astra/internal/simtime"
	"astra/internal/simworld"
	"astra/internal/workload"
)

// Result is a measured pipeline execution.
type Result struct {
	// Stages holds each stage's execution report, in order.
	Stages []*mapreduce.Report
	// JCT is the end-to-end completion time.
	JCT time.Duration
	// Cost aggregates the stage bills.
	Cost mapreduce.CostBreakdown
}

// Execute runs a planned pipeline on a fresh simulated platform in
// profiled mode: each stage's final objects feed the next stage, all on
// one object store and one Lambda platform.
func Execute(params model.Params, p Pipeline, plan *Plan) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(plan.Stages) != len(p.Stages) {
		return nil, fmt.Errorf("pipeline: plan has %d stages for a %d-stage pipeline",
			len(plan.Stages), len(p.Stages))
	}
	// The world holds the pipeline's external input: the first stage's
	// job, whatever job the caller's params were derived from.
	params.Job = workload.Job{
		Profile:    p.Stages[0].Profile,
		NumObjects: p.InputObjects,
		ObjectSize: maxInt64(p.InputBytes/int64(p.InputObjects), 1),
	}
	w, err := simworld.New(params, simworld.Input{Bucket: "pipeline-input"})
	if err != nil {
		return nil, err
	}
	res := &Result{}
	err = w.Simulate(context.Background(), func(proc *simtime.Proc) error {
		bucket := "pipeline-input"
		inKeys := w.Keys
		io := stageIO{objects: p.InputObjects, bytes: p.InputBytes}
		for i, st := range p.Stages {
			job := workload.Job{
				Profile:    st.Profile,
				NumObjects: io.objects,
				ObjectSize: maxInt64(io.bytes/int64(io.objects), 1),
			}
			rep, err := w.Driver.Run(proc, mapreduce.JobSpec{
				Workload:  job,
				Bucket:    bucket,
				InputKeys: inKeys,
				Mode:      mapreduce.Profiled,
			}, plan.Stages[i].Config)
			if err != nil {
				return fmt.Errorf("stage %q: %w", st.Name, err)
			}
			res.Stages = append(res.Stages, rep)
			bucket = rep.InterBucket
			inKeys = rep.OutputKeys
			if io, err = outputOf(st.Profile, io, plan.Stages[i].Config); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, rep := range res.Stages {
		res.JCT += rep.JCT
		res.Cost.Lambda += rep.Cost.Lambda
		res.Cost.Requests += rep.Cost.Requests
		res.Cost.Storage += rep.Cost.Storage
		res.Cost.Workflow += rep.Cost.Workflow
	}
	return res, nil
}
