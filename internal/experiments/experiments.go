// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. II motivation and Sec. V results), plus the solver and
// model ablations this reproduction adds. Each experiment returns typed
// rows and renders the same series the paper plots; astra-bench prints
// them all and EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"astra/internal/mapreduce"
	"astra/internal/model"
	"astra/internal/pricing"
	"astra/internal/simworld"
)

// Execute runs one profiled job on a fresh simulated platform built from
// the model parameters, so measurements are isolated and deterministic.
func Execute(params model.Params, cfg mapreduce.Config) (*mapreduce.Report, error) {
	return executeWithSpec(params, cfg, nil)
}

// executeWithSpec is Execute with full JobSpec control (orchestrator,
// intermediate storage class, chaos).
func executeWithSpec(params model.Params, cfg mapreduce.Config,
	mut func(*mapreduce.JobSpec)) (*mapreduce.Report, error) {
	w, err := simworld.New(params, simworld.Input{Bucket: "in"})
	if err != nil {
		return nil, err
	}
	return w.Run(context.Background(), cfg, mut, nil)
}

// fmtDur renders a duration in seconds with sensible precision.
func fmtDur(d time.Duration) string { return fmt.Sprintf("%.2fs", d.Seconds()) }

// fmtUSD renders a cost.
func fmtUSD(u pricing.USD) string { return fmt.Sprintf("$%.5f", float64(u)) }

// table is a minimal column-aligned text renderer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// Experiment is one regenerable artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func() (string, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table I: orchestration of a 10-object job", func() (string, error) { return TableI() }},
		{"fig1", "Fig. 1: completion time vs objects per lambda", func() (string, error) { return Fig1() }},
		{"fig2", "Fig. 2: monetary cost vs objects per lambda", func() (string, error) { return Fig2() }},
		{"fig3", "Fig. 3: job timeline with two sample configurations", func() (string, error) { return Fig3() }},
		{"fig6", "Fig. 6: completion time, mapper time and cost vs memory", func() (string, error) { return Fig6() }},
		{"fig7", "Fig. 7: JCT under a budget, Astra vs baselines", func() (string, error) { return Fig7() }},
		{"table3", "Table III: Astra's performance-optimal allocations", func() (string, error) { return TableIII() }},
		{"fig8", "Fig. 8: cost under a deadline, Astra vs baselines", func() (string, error) { return Fig8() }},
		{"fig9", "Fig. 9: Astra vs EMR (VM-based)", func() (string, error) { return Fig9() }},
		{"spark", "Discussion: Spark workloads, Astra vs VM cluster", func() (string, error) { return SparkDiscussion() }},
		{"providers", "Discussion: the same job planned on other providers' sheets", func() (string, error) { return Providers() }},
		{"footnote1", "Footnote 1: coordinator lambda vs Step Functions", func() (string, error) { return FootnoteOrchestrator() }},
		{"ephemeral", "Discussion: S3 vs cache-tier intermediate storage", func() (string, error) { return EphemeralStorage() }},
		{"ablation-solvers", "Ablation A1: solver comparison", func() (string, error) { return AblationSolvers() }},
		{"ablation-dag", "Ablation A2: paper DAG vs exact model optimum", func() (string, error) { return AblationDAG() }},
		{"ablation-reduce", "Ablation A3: aggregate vs per-step reduce model", func() (string, error) { return AblationReduceModel() }},
		{"ablation-aggregate-planning", "Ablation A3b: planning on the literal Eq. 9 model", func() (string, error) { return AblationAggregatePlanning() }},
		{"ablation-bandwidth", "Ablation A4: per-connection vs shared store bandwidth", func() (string, error) { return AblationSharedBandwidth() }},
		{"ablation-billing", "Ablation A5: 1 ms vs legacy 100 ms billing quantum", func() (string, error) { return AblationBillingQuantum() }},
		{"ablation-concurrency", "Ablation A6: a binding concurrency limit queues lambdas in waves", func() (string, error) { return AblationConcurrencyCap() }},
		{"sensitivity", "Sensitivity: how the optimum moves with bandwidth and dispatch latency", func() (string, error) { return Sensitivity() }},
		{"pipeline", "Extension: global budget allocated across a multi-stage pipeline", func() (string, error) { return PipelineAllocation() }},
		{"calibration", "Extension: declared vs profiler-measured data ratios", func() (string, error) { return Calibration() }},
		{"emr-scaling", "Extension: VM cluster size crossover vs Astra", func() (string, error) { return EMRScaling() }},
		{"resilience", "Extension: QoS under faults — retries vs speculative execution", func() (string, error) { return Resilience() }},
		{"frontier", "Extension: anytime time/cost Pareto frontier at Sort100GB scale", func() (string, error) { return Frontier() }},
	}
}
