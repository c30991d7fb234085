// Package pricing holds the cloud price sheets and platform quotas that the
// Astra cost model and the simulated platforms consume.
//
// The AWS sheet reproduces the constants the paper quotes (Sec. III-B):
// $0.20 per million Lambda invocations, $0.005 per 1000 S3 PUT requests,
// $0.004 per 10000 S3 GET requests, and duration billing proportional to
// allocated memory. Alternative sheets with the quota/pricing shapes of
// other FaaS providers are included because the paper's discussion section
// notes Astra ports to them by swapping exactly this data.
package pricing

import (
	"fmt"
	"time"
)

// USD is a monetary amount in US dollars. Float64 is sufficient: the
// smallest billable quantum (one GB-ms of the smallest function) is around
// 2e-9 USD and job totals stay far below 2^53 of those.
type USD float64

// String renders the amount with enough precision for per-request costs.
func (u USD) String() string { return fmt.Sprintf("$%.6f", float64(u)) }

// Lambda describes a FaaS platform's pricing and quotas.
type Lambda struct {
	// PerGBSecond is the duration price for one GB of allocated memory for
	// one second of execution.
	PerGBSecond USD
	// PerInvocation is the flat fee charged per function invocation.
	PerInvocation USD
	// MinMemoryMB, MaxMemoryMB and MemoryStepMB bound the configurable
	// memory sizes (the paper: 128 MB to 3008 MB in 64 MB increments).
	MinMemoryMB  int
	MaxMemoryMB  int
	MemoryStepMB int
	// BillingQuantum is the granularity execution duration is rounded up
	// to before billing (1 ms on AWS since Dec 2020; 100 ms before).
	BillingQuantum time.Duration
	// Timeout is the maximum permitted execution duration (900 s on AWS).
	Timeout time.Duration
	// MaxConcurrency is the account-level concurrent execution cap (1000).
	MaxConcurrency int
	// EphemeralStorageMB is the per-function scratch space (/tmp, 512 MB).
	EphemeralStorageMB int
}

// ObjectStore describes an S3-like store's pricing and limits.
type ObjectStore struct {
	// PerPut is the price of one PUT/POST/LIST-class request.
	PerPut USD
	// PerGet is the price of one GET-class request.
	PerGet USD
	// StoragePerGBMonth is the at-rest storage price per GB-month.
	StoragePerGBMonth USD
	// MaxObjectBytes is the single-object size limit (5 TB on S3), the O
	// constant in the paper's constraint (18).
	MaxObjectBytes int64
}

// VM describes an on-demand virtual machine offering, for the EMR
// comparison in Fig. 9.
type VM struct {
	Name      string
	PerHour   USD // EC2 on-demand price
	EMRPerHr  USD // additional EMR service fee
	VCPUs     int
	MemoryGB  float64
	BillMinim time.Duration // minimum billed duration per instance
}

// StepFunctions describes a managed workflow service (the alternative
// orchestrator of the paper's footnote 1).
type StepFunctions struct {
	// PerTransition is the fee per state transition ($0.025 per 1000 on
	// AWS Standard Workflows).
	PerTransition USD
	// TransitionLatency is the per-transition coordination delay.
	TransitionLatency time.Duration
}

// TransitionCost bills n state transitions.
func (s StepFunctions) TransitionCost(n int) USD {
	return s.PerTransition * USD(n)
}

// Sheet bundles the prices for one provider.
type Sheet struct {
	Provider      string
	Lambda        Lambda
	Store         ObjectStore
	StepFunctions StepFunctions
	VMs           map[string]VM
}

const (
	gb    = float64(1 << 30)
	month = 30 * 24 * time.Hour
)

// AWS returns the 2020-era AWS price sheet used throughout the paper.
func AWS() *Sheet {
	return &Sheet{
		Provider: "aws",
		Lambda: Lambda{
			PerGBSecond:        0.0000166667,
			PerInvocation:      0.20 / 1e6,
			MinMemoryMB:        128,
			MaxMemoryMB:        3008,
			MemoryStepMB:       64,
			BillingQuantum:     time.Millisecond,
			Timeout:            900 * time.Second,
			MaxConcurrency:     1000,
			EphemeralStorageMB: 512,
		},
		Store: ObjectStore{
			PerPut:            0.005 / 1e3,
			PerGet:            0.004 / 1e4,
			StoragePerGBMonth: 0.023,
			MaxObjectBytes:    5 << 40,
		},
		StepFunctions: StepFunctions{
			PerTransition:     0.025 / 1e3,
			TransitionLatency: 25 * time.Millisecond,
		},
		VMs: map[string]VM{
			"m3.xlarge": {
				Name:      "m3.xlarge",
				PerHour:   0.266,
				EMRPerHr:  0.070,
				VCPUs:     4,
				MemoryGB:  15,
				BillMinim: time.Minute,
			},
			"m5.xlarge": {
				Name:      "m5.xlarge",
				PerHour:   0.192,
				EMRPerHr:  0.048,
				VCPUs:     4,
				MemoryGB:  16,
				BillMinim: time.Minute,
			},
		},
	}
}

// AWSLegacyBilling returns the AWS sheet with the pre-Dec-2020 100 ms
// billing quantum, for the billing-granularity ablation.
func AWSLegacyBilling() *Sheet {
	s := AWS()
	s.Lambda.BillingQuantum = 100 * time.Millisecond
	return s
}

// GCPLike returns a sheet with Google Cloud Functions' quota shape:
// power-of-two memory tiers (emulated as 128..2048 step 128 here to keep a
// dense tier set), 540 s timeout, and slightly different unit prices.
func GCPLike() *Sheet {
	return &Sheet{
		Provider: "gcp-like",
		Lambda: Lambda{
			PerGBSecond:        0.0000165,
			PerInvocation:      0.40 / 1e6,
			MinMemoryMB:        128,
			MaxMemoryMB:        2048,
			MemoryStepMB:       128,
			BillingQuantum:     100 * time.Millisecond,
			Timeout:            540 * time.Second,
			MaxConcurrency:     1000,
			EphemeralStorageMB: 512,
		},
		Store: ObjectStore{
			PerPut:            0.005 / 1e3,
			PerGet:            0.0004 / 1e3,
			StoragePerGBMonth: 0.020,
			MaxObjectBytes:    5 << 40,
		},
		VMs: map[string]VM{},
	}
}

// AzureLike returns a sheet with Azure Functions' consumption-plan shape:
// memory billed at observed granularity up to 1536 MB, 600 s timeout.
func AzureLike() *Sheet {
	return &Sheet{
		Provider: "azure-like",
		Lambda: Lambda{
			PerGBSecond:        0.000016,
			PerInvocation:      0.20 / 1e6,
			MinMemoryMB:        128,
			MaxMemoryMB:        1536,
			MemoryStepMB:       128,
			BillingQuantum:     100 * time.Millisecond,
			Timeout:            600 * time.Second,
			MaxConcurrency:     1000,
			EphemeralStorageMB: 500,
		},
		Store: ObjectStore{
			PerPut:            0.005 / 1e3,
			PerGet:            0.0004 / 1e3,
			StoragePerGBMonth: 0.0184,
			MaxObjectBytes:    4 << 40,
		},
		VMs: map[string]VM{},
	}
}

// MemoryTiers enumerates every configurable memory size in MB, smallest
// first. For the AWS sheet this yields the paper's L = 46 tiers.
func (l Lambda) MemoryTiers() []int {
	if l.MemoryStepMB <= 0 || l.MaxMemoryMB < l.MinMemoryMB {
		return nil
	}
	var tiers []int
	for m := l.MinMemoryMB; m <= l.MaxMemoryMB; m += l.MemoryStepMB {
		tiers = append(tiers, m)
	}
	return tiers
}

// NumTiers reports the number of memory tiers (L in the paper).
func (l Lambda) NumTiers() int { return len(l.MemoryTiers()) }

// ValidMemory reports whether memMB is a configurable memory size.
func (l Lambda) ValidMemory(memMB int) bool {
	if memMB < l.MinMemoryMB || memMB > l.MaxMemoryMB {
		return false
	}
	return (memMB-l.MinMemoryMB)%l.MemoryStepMB == 0
}

// BilledDuration rounds d up to the billing quantum.
func (l Lambda) BilledDuration(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	q := l.BillingQuantum
	if q <= 0 {
		return d
	}
	return ((d + q - 1) / q) * q
}

// DurationCost computes the duration component of one invocation's bill:
// billed duration x allocated GB x the GB-second price. The v_i constants
// in Eq. 13-15 are exactly PerSecond(memMB).
func (l Lambda) DurationCost(memMB int, d time.Duration) USD {
	billed := l.BilledDuration(d)
	return l.PerSecond(memMB) * USD(billed.Seconds())
}

// PerSecond reports the per-second execution price of a function with the
// given memory allocation (v_i in the paper).
func (l Lambda) PerSecond(memMB int) USD {
	return l.PerGBSecond * USD(float64(memMB)/1024.0)
}

// InvocationCost computes the flat invocation fee for n invocations
// (I terms, Eq. 12).
func (l Lambda) InvocationCost(n int) USD {
	return l.PerInvocation * USD(n)
}

// RequestCost computes the S3 request bill for the given counts (U terms,
// Eq. 10).
func (o ObjectStore) RequestCost(gets, puts int64) USD {
	return o.PerGet*USD(gets) + o.PerPut*USD(puts)
}

// StorageCost converts byte-seconds of occupancy into dollars using the
// per-GB-month rate (the H constant in Eq. 11).
func (o ObjectStore) StorageCost(byteSeconds float64) USD {
	gbMonths := byteSeconds / gb / month.Seconds()
	return o.StoragePerGBMonth * USD(gbMonths)
}

// VMCost computes the bill for running one VM for d, honoring the minimum
// billed duration, including the EMR service fee.
func (v VM) VMCost(d time.Duration) USD {
	if d < v.BillMinim {
		d = v.BillMinim
	}
	hours := d.Hours()
	return (v.PerHour + v.EMRPerHr) * USD(hours)
}
