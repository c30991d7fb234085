// Package profiler closes the loop from execution back to the model: it
// runs a small concrete sample of an application on the simulated
// platform and measures the data ratios the analytic models need — the
// mapper output ratio (alpha) and the per-step reducer output ratio
// (beta) — from the actual object sizes the application produced.
//
// This is the "as Astra sees more types of workloads, the modeling ...
// could be dynamically adjusted and refined to achieve better accuracy"
// mechanism of the paper's discussion section: a declared profile's
// ratios are nominal; Calibrate replaces them with ratios observed on a
// sample of the user's own data, so the planner optimizes against the
// workload's real shape.
package profiler

import (
	"context"
	"fmt"
	"math"

	"astra/internal/mapreduce"
	"astra/internal/model"
	"astra/internal/simtime"
	"astra/internal/simworld"
	"astra/internal/workload"
)

// Sample describes the calibration run: a small concrete dataset.
type Sample struct {
	// Objects is the sample object count (>= 4 so a reduce tree forms).
	Objects int
	// BytesPerObject is the sample object size (keep it small: the host
	// materializes the data).
	BytesPerObject int
	// Seed makes the generated sample reproducible.
	Seed int64
}

// Calibration is the measured outcome.
type Calibration struct {
	// Profile is the input profile with measured ratios substituted.
	Profile workload.Profile
	// MapOutputRatio and ReduceOutputRatio are the measured values.
	MapOutputRatio    float64
	ReduceOutputRatio float64
	// MapOutBytes and InputBytes document the measurement.
	InputBytes, MapOutBytes int64
}

// Calibrate runs the application concretely over a generated sample and
// measures its data ratios. The profile's compute density (u) is kept:
// in the simulated platform compute time is charged from the declared
// density, so only the genuinely emergent quantities — object sizes —
// are measured.
func Calibrate(pf workload.Profile, s Sample) (*Calibration, error) {
	if s.Objects < 4 {
		return nil, fmt.Errorf("profiler: need at least 4 sample objects, got %d", s.Objects)
	}
	if s.BytesPerObject <= 0 {
		return nil, fmt.Errorf("profiler: sample object size must be positive")
	}
	job := workload.Job{
		Profile:    pf,
		NumObjects: s.Objects,
		ObjectSize: int64(s.BytesPerObject),
	}
	params := model.DefaultParams(job)
	w, err := simworld.New(params, simworld.Input{Bucket: "sample", Concrete: true, Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	// A config that produces a multi-step reduce tree (for aggregations)
	// so beta can be observed: 2 objects per mapper, 2 per reducer.
	cfg := mapreduce.Config{
		MapperMemMB: 1024, CoordMemMB: 256, ReducerMemMB: 1024,
		ObjsPerMapper: 2, ObjsPerReducer: 2,
	}

	cal := &Calibration{Profile: pf, InputBytes: job.TotalBytes()}
	_, err = w.Run(context.Background(), cfg, nil, func(p *simtime.Proc, rep *mapreduce.Report) error {
		// bytesUnder sums the sizes of a run's objects under a key prefix.
		bytesUnder := func(prefix string) (int64, error) {
			keys, err := w.Store.List(p, rep.InterBucket, prefix)
			if err != nil {
				return 0, err
			}
			var total int64
			for _, k := range keys {
				obj, err := w.Store.Head(p, rep.InterBucket, k)
				if err != nil {
					return 0, err
				}
				total += obj.Size
			}
			return total, nil
		}

		// Mapper outputs.
		var err error
		if cal.MapOutBytes, err = bytesUnder("map/"); err != nil {
			return err
		}
		cal.MapOutputRatio = float64(cal.MapOutBytes) / float64(cal.InputBytes)

		// Per-step reducer outputs: beta is the geometric mean of the
		// per-step output/input byte ratios.
		prevBytes := cal.MapOutBytes
		logSum, steps := 0.0, 0
		for pi := 0; pi < rep.Orchestration.NumSteps(); pi++ {
			out, err := bytesUnder(fmt.Sprintf("red/%02d/", pi))
			if err != nil {
				return err
			}
			if prevBytes > 0 && out > 0 {
				logSum += math.Log(float64(out) / float64(prevBytes))
				steps++
			}
			prevBytes = out
		}
		if steps > 0 {
			cal.ReduceOutputRatio = math.Exp(logSum / float64(steps))
		} else {
			cal.ReduceOutputRatio = pf.ReduceOutputRatio
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if cal.MapOutputRatio <= 0 {
		return nil, fmt.Errorf("profiler: sample produced no intermediate data")
	}
	cal.Profile.MapOutputRatio = cal.MapOutputRatio
	cal.Profile.ReduceOutputRatio = cal.ReduceOutputRatio
	return cal, nil
}
