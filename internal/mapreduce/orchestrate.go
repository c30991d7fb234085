// Package mapreduce implements the serverless MapReduce framework the
// paper builds on (the AWS reference architecture of Sec. II-B): parallel
// mapper lambdas, a coordinator lambda, and a multi-step tree of reducer
// lambdas exchanging intermediate objects through the object store.
//
// The package has two layers: Orchestrate computes the pure shape of a job
// (Table I of the paper) from the object counts, and Driver executes that
// shape on the simulated Lambda platform, in either concrete mode (real
// bytes, real map/reduce code) or profiled mode (size-only metadata at any
// scale).
package mapreduce

import (
	"fmt"
	"math"

	"astra/internal/workload"
)

// StateObjectBytes is the size of the reducer state object the coordinator
// writes to the store before each reducing step (the l constant; the paper
// assumes 1 MB).
const StateObjectBytes = 1 << 20

// Split is a greedy distribution of objects over workers, in closed
// form: Full workers carry K objects each and, when Tail > 0, one last
// worker carries the remaining Tail < K — the skewed tail distribution the
// paper describes in Sec. II-C (10 objects at k=7 split as (7,3)). Worker
// i's load is Load(i), so a shape never materializes a per-worker slice.
type Split struct {
	Full, K, Tail int
}

// greedySplit distributes n objects into loads of k, the remainder on the
// last worker.
func greedySplit(n, k int) Split {
	return Split{Full: n / k, K: k, Tail: n % k}
}

// Count reports the number of workers.
func (s Split) Count() int {
	if s.Tail > 0 {
		return s.Full + 1
	}
	return s.Full
}

// Load reports worker i's object count, for 0 <= i < Count().
func (s Split) Load(i int) int {
	if i < s.Full {
		return s.K
	}
	return s.Tail
}

// Max reports the busiest worker's object count.
func (s Split) Max() int {
	if s.Full > 0 {
		return s.K
	}
	return s.Tail
}

// Objects reports the number of objects distributed.
func (s Split) Objects() int { return s.Full*s.K + s.Tail }

// Orchestration is the complete shape of a serverless MapReduce job for
// given object counts: how many mappers, how objects are distributed, and
// the full reducing-step cascade (the paper's Table I and Table II). It is
// a small value in closed form: the cascade is the mapper count and the
// per-step split rule, and Step(p) derives step p on demand.
type Orchestration struct {
	NumObjects     int
	ObjsPerMapper  int
	ObjsPerReducer int
	// MapperLoads splits the input objects over the mappers.
	MapperLoads Split

	steps int // P, the number of reducing steps
	// stepK is the per-reducer object count of every step's split: k_R,
	// or the mapper count j for the k_R = 1 cascade's single
	// all-consuming reducer.
	stepK int
}

// Mappers reports the number of mapper lambdas (j).
func (o Orchestration) Mappers() int { return o.MapperLoads.Count() }

// NumSteps reports the number of reducing steps (P).
func (o Orchestration) NumSteps() int { return o.steps }

// Step returns reducing step p's split of its input objects over its
// reducers, for 0 <= p < NumSteps(): step 0 consumes the mapper outputs
// and every later step the previous step's outputs. Step(p).Count() is
// g_{p+1}.
func (o Orchestration) Step(p int) Split {
	// Step p consumes ceil(j/k^p) objects (a ceiling of a quotient's
	// ceiling is the ceiling of the quotient by the product), and step p
	// exists only while k^p < j, so k^p cannot overflow.
	div := 1
	for ; p > 0; p-- {
		div *= o.stepK
	}
	return greedySplit((o.Mappers()-1)/div+1, o.stepK)
}

// Reducers reports the total number of reducer lambdas across all steps
// (g in the paper).
func (o Orchestration) Reducers() int {
	n := 0
	for p := 0; p < o.steps; p++ {
		n += o.Step(p).Count()
	}
	return n
}

// TotalLambdas reports every lambda the job invokes: mappers, one
// coordinator, and all reducers.
func (o Orchestration) TotalLambdas() int { return o.Mappers() + 1 + o.Reducers() }

// Orchestrate computes the job shape for n input objects with kM objects
// per mapper and kR objects per reducer.
//
// Mappers: j = ceil(n/kM), loads greedy with a skewed tail. Reducing:
// g_1 = ceil(j/kR), then g_p = ceil(g_{p-1}/kR) until a single reducer
// remains; kR <= 1 degenerates to a single one-reducer step consuming all
// j objects (Table I, column 1). A job always has at least one reducing
// step, which produces the final output object.
func Orchestrate(n, kM, kR int) (Orchestration, error) {
	return orchestrate(n, kM, kR, false)
}

// OrchestrateFor computes the job shape for a workload profile:
// single-step-reduce applications (Sort) run exactly one reducing step
// whose partitioned outputs are final; aggregations cascade until a
// single object remains.
func OrchestrateFor(pf workload.Profile, n, kM, kR int) (Orchestration, error) {
	return orchestrate(n, kM, kR, pf.SingleStepReduce)
}

func orchestrate(n, kM, kR int, singleStep bool) (Orchestration, error) {
	if n <= 0 {
		return Orchestration{}, fmt.Errorf("mapreduce: need a positive object count, got %d", n)
	}
	if kM <= 0 || kM > n {
		return Orchestration{}, fmt.Errorf("mapreduce: objects per mapper %d out of range [1, %d]", kM, n)
	}
	if kR <= 0 {
		return Orchestration{}, fmt.Errorf("mapreduce: objects per reducer %d must be positive", kR)
	}
	o := Orchestration{
		NumObjects:     n,
		ObjsPerMapper:  kM,
		ObjsPerReducer: kR,
		MapperLoads:    greedySplit(n, kM),
		steps:          1,
		stepK:          kR,
	}
	switch {
	case singleStep:
	case kR == 1:
		// A reducer that consumes one object and emits one object would
		// cascade forever; the reference framework collapses this to a
		// single reducer handling everything (Table I, column 1).
		o.stepK = o.Mappers()
	default:
		// Step p consumes ceil(j/kR^p) objects (see Step), so the
		// cascade runs the least P >= 1 steps with kR^P >= j.
		j, limit := o.Mappers(), math.MaxInt/kR
		for pow := kR; pow < j; pow *= kR {
			o.steps++
			if pow > limit {
				break // kR^P overflows, so it exceeds j
			}
		}
	}
	return o, nil
}

// TableIRow reproduces one column of the paper's Table I for the
// motivation experiment (10 input objects): the mapper count and the
// reducer count at each step, for k objects per lambda.
type TableIRow struct {
	ObjectsPerLambda int
	Mappers          int
	StepReducers     []int
}

// TableI computes the paper's Table I for n input objects and the given
// per-lambda object counts (the paper uses n=10, k=1..5).
func TableI(n int, ks []int) ([]TableIRow, error) {
	rows := make([]TableIRow, 0, len(ks))
	for _, k := range ks {
		o, err := Orchestrate(n, k, k)
		if err != nil {
			return nil, err
		}
		row := TableIRow{ObjectsPerLambda: k, Mappers: o.Mappers()}
		for p := 0; p < o.NumSteps(); p++ {
			row.StepReducers = append(row.StepReducers, o.Step(p).Count())
		}
		rows = append(rows, row)
	}
	return rows, nil
}
