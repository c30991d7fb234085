// Package workload defines the analytics workloads of the paper's
// evaluation — WordCount, Sort, and Query over the AMPLab uservisits
// dataset — as (a) calibration profiles consumed by the performance/cost
// models and the profiled execution mode, and (b) deterministic data
// generators for concrete execution.
//
// A profile captures everything the Astra models need to know about an
// application: per-MB compute demand at the reference memory tier (u in
// Eq. 3), the mapper output ratio (intermediate data per input byte), the
// per-step reducer output ratio, and the coordinator's per-object work.
package workload

import (
	"fmt"
)

// Profile is the calibration record for one application.
type Profile struct {
	// Name identifies the application.
	Name string
	// USecPerMB is compute seconds per MB of input, measured at the
	// platform's reference memory tier (1024 MB).
	USecPerMB float64
	// MapOutputRatio is bytes of intermediate data emitted per byte of
	// mapper input (the d -> e proportionality of Sec. III-A).
	MapOutputRatio float64
	// ReduceOutputRatio is bytes emitted per byte consumed at each
	// reducer step (the q_p recurrence of Table II).
	ReduceOutputRatio float64
	// CoordSecPerObject is the coordinator's compute seconds per
	// intermediate object, at the reference tier.
	CoordSecPerObject float64
	// SingleStepReduce marks applications whose reducers emit final,
	// partitioned output after one step (TeraSort-style range-partitioned
	// sort), instead of cascading until a single object remains
	// (aggregations like WordCount and Query). This is how the paper's
	// Table III shows Sort finishing with 7 reducers in 1 step.
	SingleStepReduce bool
}

// Validate reports whether the profile is physically sensible.
func (pf Profile) Validate() error {
	if pf.Name == "" {
		return fmt.Errorf("workload: profile has no name")
	}
	if pf.USecPerMB <= 0 {
		return fmt.Errorf("workload %s: USecPerMB must be positive", pf.Name)
	}
	if pf.MapOutputRatio <= 0 || pf.ReduceOutputRatio <= 0 {
		return fmt.Errorf("workload %s: output ratios must be positive", pf.Name)
	}
	if pf.CoordSecPerObject < 0 {
		return fmt.Errorf("workload %s: negative coordinator work", pf.Name)
	}
	return nil
}

// The benchmark profiles. Compute densities and data ratios are calibrated
// so the figures' shapes match the paper (see DESIGN.md Sec. 6):
// WordCount is compute-heavy with strong data reduction, Sort is
// data-volume-bound with no reduction, Query scans a lot and aggregates to
// almost nothing.
var (
	// WordCount tokenizes text and counts word frequencies.
	WordCount = Profile{
		Name:              "wordcount",
		USecPerMB:         0.12,
		MapOutputRatio:    0.10,
		ReduceOutputRatio: 0.90,
		CoordSecPerObject: 0.02,
	}
	// Sort globally sorts fixed-size records; all bytes flow through
	// every phase, and reducers emit final range partitions after a
	// single step.
	Sort = Profile{
		Name:              "sort",
		USecPerMB:         0.035,
		MapOutputRatio:    1.0,
		ReduceOutputRatio: 1.0,
		CoordSecPerObject: 0.02,
		SingleStepReduce:  true,
	}
	// Query filters and aggregates the uservisits table (the AMPLab
	// benchmark's aggregation query).
	Query = Profile{
		Name:              "query",
		USecPerMB:         0.055,
		MapOutputRatio:    0.05,
		ReduceOutputRatio: 0.50,
		CoordSecPerObject: 0.02,
	}
	// SparkWordCount and SparkSQL model the discussion-section Spark
	// experiments: similar data flow with higher per-byte constants for
	// the JVM+Spark task overheads.
	SparkWordCount = Profile{
		Name:              "spark-wordcount",
		USecPerMB:         0.16,
		MapOutputRatio:    0.10,
		ReduceOutputRatio: 0.90,
		CoordSecPerObject: 0.03,
	}
	SparkSQL = Profile{
		Name:              "spark-sql",
		USecPerMB:         0.075,
		MapOutputRatio:    0.05,
		ReduceOutputRatio: 0.50,
		CoordSecPerObject: 0.03,
	}
	// Grep scans text for matching lines: very light compute, strong
	// selectivity, and concatenating reducers (the filter stage of
	// multi-stage log-analytics pipelines).
	Grep = Profile{
		Name:              "grep",
		USecPerMB:         0.02,
		MapOutputRatio:    0.08,
		ReduceOutputRatio: 1.0,
		CoordSecPerObject: 0.02,
		SingleStepReduce:  true,
	}
)

// profiles is every calibration profile, in name order.
var profiles = []Profile{Grep, Query, Sort, SparkSQL, SparkWordCount, WordCount}

// ByName resolves a profile from its name.
func ByName(name string) (Profile, error) {
	for _, pf := range profiles {
		if pf.Name == name {
			return pf, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q", name)
}

// Names lists the profile names ByName accepts, sorted.
func Names() []string {
	names := make([]string, len(profiles))
	for i, pf := range profiles {
		names[i] = pf.Name
	}
	return names
}

// Job describes one benchmark input: a profile plus the input layout in
// the object store.
type Job struct {
	Profile    Profile
	NumObjects int
	ObjectSize int64 // bytes per input object
}

// TotalBytes reports the input dataset size.
func (j Job) TotalBytes() int64 { return int64(j.NumObjects) * j.ObjectSize }

// TotalMB reports the input dataset size in MB (the D constant).
func (j Job) TotalMB() float64 { return float64(j.TotalBytes()) / (1 << 20) }

// Validate reports whether the job is well-formed.
func (j Job) Validate() error {
	if err := j.Profile.Validate(); err != nil {
		return err
	}
	if j.NumObjects <= 0 {
		return fmt.Errorf("workload %s: NumObjects must be positive", j.Profile.Name)
	}
	if j.ObjectSize <= 0 {
		return fmt.Errorf("workload %s: ObjectSize must be positive", j.Profile.Name)
	}
	return nil
}

const (
	mb = int64(1) << 20
	gb = int64(1) << 30
)

// The paper's five evaluation inputs (Sec. V "Workloads"). Object counts
// are chosen so the allocations in Table III are feasible: e.g. Query is
// "25.4 GB stored in S3 as 202 objects" verbatim from the paper.

// WordCount1GB is the 1 GB WordCount input: 20 objects of ~51 MB.
func WordCount1GB() Job {
	return Job{Profile: WordCount, NumObjects: 20, ObjectSize: gb / 20}
}

// WordCount10GB is the 10 GB WordCount input: 24 objects of ~427 MB.
func WordCount10GB() Job {
	return Job{Profile: WordCount, NumObjects: 24, ObjectSize: 10 * gb / 24}
}

// WordCount20GB is the 20 GB WordCount input: 40 objects of 512 MB.
func WordCount20GB() Job {
	return Job{Profile: WordCount, NumObjects: 40, ObjectSize: 20 * gb / 40}
}

// Sort100GB is the 100 GB Sort input: 200 objects of 500 MB (Sec. V:
// "each of the 200 objects is as large as 500 MB").
func Sort100GB() Job {
	return Job{Profile: Sort, NumObjects: 200, ObjectSize: 500 * mb}
}

// Query25GB is the 25.4 GB uservisits input in 202 objects (Sec. V).
func Query25GB() Job {
	total := 25.4 * float64(gb)
	return Job{Profile: Query, NumObjects: 202, ObjectSize: int64(total / 202)}
}

// MotivationJob is the Sec. II toy input: 10 objects, 2 MB total.
func MotivationJob() Job {
	return Job{Profile: WordCount, NumObjects: 10, ObjectSize: 2 * mb / 10}
}

// PaperJobs returns the five evaluation inputs in the order the figures
// plot them.
func PaperJobs() []Job {
	return []Job{
		WordCount1GB(), WordCount10GB(), WordCount20GB(), Sort100GB(), Query25GB(),
	}
}
