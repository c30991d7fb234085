package flight

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"astra/internal/pricing"
	"astra/internal/simtime"
	"astra/internal/telemetry"
)

// ErrNoEvents is returned by Analyze when the stream holds no phase
// markers — i.e. the recorder was not attached to a run.
var ErrNoEvents = errors.New("flight: no recorded run (attach a recorder via WithFlightRecorder)")

// StageTerms decomposes one stage's duration into the paper's per-stage
// cost terms (Eq. 3–10): startup (dispatch serialization, queueing, cold
// start), declared compute, object-store I/O, and waiting — the residual
// slack left once the first three are accounted for. The four terms sum
// exactly to the stage duration by construction.
type StageTerms struct {
	Startup time.Duration `json:"startup"`
	Compute time.Duration `json:"compute"`
	IO      time.Duration `json:"io"`
	Waiting time.Duration `json:"waiting"`
}

// Total sums the terms (equal to the stage duration by construction).
func (t StageTerms) Total() time.Duration {
	return t.Startup + t.Compute + t.IO + t.Waiting
}

// Stage is one segment of the critical path: the map phase, the
// orchestration segment (coordinator-exclusive time, or managed-workflow
// transitions), or one reducing step. Stage durations sum exactly to the
// job completion time.
type Stage struct {
	// Name is "map", "coordinator" (or "orchestration" under a managed
	// workflow), or "step-NN".
	Name string `json:"name"`
	// MemoryMB is the memory tier of the stage's critical lambda (0 when
	// no lambda anchors the stage).
	MemoryMB int `json:"mem_mb"`
	// Duration is the stage's share of the job completion time.
	Duration time.Duration `json:"duration"`
	// Terms attributes the duration to the paper's stage terms.
	Terms StageTerms `json:"terms"`
	// Critical labels the blocking invocation (the slowest task whose
	// completion released the stage barrier).
	Critical string `json:"critical,omitempty"`
}

// CriticalPath is the analyzer's output: the recorded run re-expressed as
// the chain of stage barriers that determined the job completion time.
type CriticalPath struct {
	// JCT is the recorded end-to-end job completion time.
	JCT time.Duration `json:"jct"`
	// Stages in execution order; durations sum exactly to JCT.
	Stages []Stage `json:"stages"`
	// Chain lists the blocking invocation labels in order.
	Chain []string `json:"chain"`
}

// Breakdown is a per-stage prediction in the same shape the analyzer
// produces for measurements, so predicted and measured runs diff
// term-by-term. model.Exact.PredictBreakdown fills one from the planner's
// replayed timeline.
type Breakdown struct {
	Stages  []Stage       `json:"stages"`
	JCT     time.Duration `json:"jct"`
	CostUSD pricing.USD   `json:"cost_usd"`
}

// perInv aggregates one invocation's attributed intervals.
type perInv struct {
	io      time.Duration
	compute time.Duration
	done    *Event
}

type window struct{ start, end simtime.Time }

func (w window) dur() time.Duration { return w.end - w.start }

// Analyze walks a run's event stream and attributes the job completion
// time to its stage barriers: the mapper wave, the shuffle barrier into
// the orchestration segment, and each reducer wave. Per stage it finds the
// blocking invocation and decomposes the stage duration into the Eq. 3–10
// terms, with waiting as the exact residual — so stage durations sum to
// the JCT and terms sum to their stage, both to the virtual-time tick.
func Analyze(events []Event) (*CriticalPath, error) {
	phases := map[string]window{}
	var stepNames []string
	invs := map[int64]*perInv{}
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case KindPhase:
			phases[ev.Name] = window{ev.Start, ev.Time}
			if strings.HasPrefix(ev.Name, "step-") {
				stepNames = append(stepNames, ev.Name)
			}
		case KindInvokeDone, KindInvokeTimeout, KindInvokeError:
			pi := invFor(invs, ev.Inv)
			pi.done = ev
		case KindCompute:
			invFor(invs, ev.Inv).compute += ev.Time - ev.Start
		default:
			if ev.Kind.IsStore() {
				invFor(invs, ev.Inv).io += ev.Time - ev.Start
			}
		}
	}
	run, ok := phases["run"]
	if !ok {
		return nil, ErrNoEvents
	}
	mapw, ok := phases["map"]
	if !ok {
		return nil, fmt.Errorf("flight: event stream has no map phase marker")
	}

	cp := &CriticalPath{JCT: run.dur()}

	// Map stage: the critical task is the last invocation to complete
	// within the map window (its completion released the shuffle barrier).
	mapStage := stageFromWindow("map", mapw, invs, func(pi *perInv) bool {
		return pi.done.Time <= mapw.end
	})
	cp.Stages = append(cp.Stages, mapStage)

	// Reducing steps.
	var stepsTotal time.Duration
	stepStages := make([]Stage, 0, len(stepNames))
	for _, name := range stepNames {
		w := phases[name]
		st := stageFromWindow(name, w, invs, func(pi *perInv) bool {
			return pi.done.Start >= w.start && pi.done.Time <= w.end
		})
		stepsTotal += st.Duration
		stepStages = append(stepStages, st)
	}

	// Orchestration stage: everything the map phase and the reducing steps
	// do not cover — the coordinator's exclusive time under the
	// coordinator-lambda orchestrator (compute, state writes, its own
	// startup), or the managed workflow's transition latencies. Computing
	// it as the residual makes the stage sum exact by construction.
	orch := Stage{Name: "orchestration", Duration: cp.JCT - mapStage.Duration - stepsTotal}
	if cw, ok := phases["coordinator"]; ok {
		orch.Name = "coordinator"
		if pi := coordinatorInv(invs); pi != nil {
			orch.MemoryMB = pi.done.MemoryMB
			orch.Critical = labelOf(pi.done)
			orch.Terms.Startup = pi.done.Start - cw.start
			orch.Terms.Compute = pi.compute
			orch.Terms.IO = pi.io
			orch.Terms.Waiting = orch.Duration - orch.Terms.Startup - orch.Terms.Compute - orch.Terms.IO
		} else {
			orch.Terms.Waiting = orch.Duration
		}
	} else {
		// Managed workflow: the whole segment is orchestration overhead,
		// closest in kind to startup (transition latency before each wave).
		orch.Terms.Startup = orch.Duration
	}
	cp.Stages = append(cp.Stages, orch)
	cp.Stages = append(cp.Stages, stepStages...)

	for _, st := range cp.Stages {
		if st.Critical != "" {
			cp.Chain = append(cp.Chain, st.Critical)
		}
	}
	return cp, nil
}

func invFor(m map[int64]*perInv, inv int64) *perInv {
	pi, ok := m[inv]
	if !ok {
		pi = &perInv{}
		m[inv] = pi
	}
	return pi
}

func labelOf(ev *Event) string {
	if ev.Label != "" {
		return ev.Label
	}
	return ev.Function
}

// stageFromWindow builds a stage whose critical task is the
// latest-completing invocation matching the filter; ties break toward the
// earlier event, which is deterministic because the stream is.
func stageFromWindow(name string, w window, invs map[int64]*perInv, match func(*perInv) bool) Stage {
	st := Stage{Name: name, Duration: w.dur()}
	// Map iteration order is random, but the selection is a strict
	// argmax with a lowest-invocation tiebreak, so the critical task is
	// deterministic regardless.
	var crit *perInv
	var critInv int64
	for inv, pi := range invs {
		if inv == 0 || pi.done == nil || !match(pi) {
			continue
		}
		if crit == nil || pi.done.Time > crit.done.Time ||
			(pi.done.Time == crit.done.Time && inv < critInv) {
			crit, critInv = pi, inv
		}
	}
	if crit == nil {
		st.Terms.Waiting = st.Duration
		return st
	}
	st.MemoryMB = crit.done.MemoryMB
	st.Critical = labelOf(crit.done)
	st.Terms.Startup = crit.done.Start - w.start
	st.Terms.Compute = crit.compute
	st.Terms.IO = crit.io
	st.Terms.Waiting = st.Duration - st.Terms.Startup - st.Terms.Compute - st.Terms.IO
	return st
}

// coordinatorInv finds the coordinator's aggregate by its driver label.
func coordinatorInv(invs map[int64]*perInv) *perInv {
	for inv, pi := range invs {
		if inv != 0 && pi.done != nil && pi.done.Label == "coordinator" {
			return pi
		}
	}
	return nil
}

// TermError compares one predicted term against its recorded actual.
type TermError struct {
	// Stage is the measured stage name; Term is "total", "startup",
	// "compute", "io" or "waiting".
	Stage string `json:"stage"`
	Term  string `json:"term"`
	// MemoryMB is the measured stage's memory tier.
	MemoryMB  int           `json:"mem_mb"`
	Predicted time.Duration `json:"predicted"`
	Measured  time.Duration `json:"measured"`
}

// Abs is the absolute prediction error.
func (te TermError) Abs() time.Duration {
	d := te.Predicted - te.Measured
	if d < 0 {
		d = -d
	}
	return d
}

// PctError is the absolute percentage error against the measured value
// (0 when the measured value is zero).
func (te TermError) PctError() float64 {
	if te.Measured == 0 {
		return 0
	}
	return 100 * float64(te.Abs()) / float64(te.Measured)
}

// TierAccuracy aggregates stage-level prediction error per memory tier.
type TierAccuracy struct {
	MemoryMB int     `json:"mem_mb"`
	MAPEPct  float64 `json:"mape_pct"`
	Stages   int     `json:"stages"`
}

// Audit is the model-accuracy report: the measured critical path, the
// planner's per-term predictions for the same Config, and the per-term
// error table — the Fig. 7–8 predicted-vs-measured comparison per stage
// and per memory tier.
type Audit struct {
	// Path is the measured critical path.
	Path *CriticalPath `json:"path"`
	// Predicted is the planner's per-stage breakdown (nil when no
	// prediction was attached to the report).
	Predicted *Breakdown `json:"predicted,omitempty"`

	JCTMeasured   time.Duration `json:"jct_measured"`
	JCTPredicted  time.Duration `json:"jct_predicted"`
	CostMeasured  pricing.USD   `json:"cost_measured"`
	CostPredicted pricing.USD   `json:"cost_predicted"`

	// Terms holds the per-stage, per-term comparison (empty without a
	// prediction).
	Terms []TermError `json:"terms,omitempty"`
	// Tiers aggregates stage-duration MAPE per memory tier.
	Tiers []TierAccuracy `json:"tiers,omitempty"`
	// MAPEPct is the mean absolute percentage error across stage
	// durations.
	MAPEPct float64 `json:"mape_pct"`
}

// BuildAudit combines a measured critical path with a predicted breakdown.
// Stages are matched positionally (both sides order them map,
// orchestration, steps); pred may be nil, yielding a measurement-only
// audit.
func BuildAudit(path *CriticalPath, pred *Breakdown, measuredCost pricing.USD) *Audit {
	a := &Audit{
		Path:         path,
		Predicted:    pred,
		JCTMeasured:  path.JCT,
		CostMeasured: measuredCost,
	}
	if pred == nil {
		return a
	}
	a.JCTPredicted = pred.JCT
	a.CostPredicted = pred.CostUSD

	n := len(path.Stages)
	if len(pred.Stages) < n {
		n = len(pred.Stages)
	}
	type tierAgg struct {
		sum    float64
		stages int
	}
	tiers := map[int]*tierAgg{}
	var tierOrder []int
	var mapeSum float64
	var mapeN int
	for i := 0; i < n; i++ {
		ms, ps := path.Stages[i], pred.Stages[i]
		add := func(term string, p, m time.Duration) {
			a.Terms = append(a.Terms, TermError{
				Stage: ms.Name, Term: term, MemoryMB: ms.MemoryMB,
				Predicted: p, Measured: m,
			})
		}
		add("total", ps.Duration, ms.Duration)
		total := a.Terms[len(a.Terms)-1]
		add("startup", ps.Terms.Startup, ms.Terms.Startup)
		add("compute", ps.Terms.Compute, ms.Terms.Compute)
		add("io", ps.Terms.IO, ms.Terms.IO)
		add("waiting", ps.Terms.Waiting, ms.Terms.Waiting)

		if ms.Duration > 0 {
			pct := total.PctError()
			mapeSum += pct
			mapeN++
			ta, ok := tiers[ms.MemoryMB]
			if !ok {
				ta = &tierAgg{}
				tiers[ms.MemoryMB] = ta
				tierOrder = append(tierOrder, ms.MemoryMB)
			}
			ta.sum += pct
			ta.stages++
		}
	}
	if mapeN > 0 {
		a.MAPEPct = mapeSum / float64(mapeN)
	}
	for i := 1; i < len(tierOrder); i++ { // insertion sort: tiny slice
		for j := i; j > 0 && tierOrder[j-1] > tierOrder[j]; j-- {
			tierOrder[j-1], tierOrder[j] = tierOrder[j], tierOrder[j-1]
		}
	}
	for _, mem := range tierOrder {
		ta := tiers[mem]
		a.Tiers = append(a.Tiers, TierAccuracy{
			MemoryMB: mem,
			MAPEPct:  ta.sum / float64(ta.stages),
			Stages:   ta.stages,
		})
	}
	return a
}

func fmtSec(d time.Duration) string { return fmt.Sprintf("%.3fs", d.Seconds()) }

// Render writes the audit as a human-readable report: the measured
// critical path with its term decomposition, then — when a prediction is
// attached — the per-term error table and tier summary.
func (a *Audit) Render() string {
	var b strings.Builder
	line := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }

	line("flight audit")
	line("  measured:   JCT %s, cost %v", fmtSec(a.JCTMeasured), a.CostMeasured)
	if a.Predicted != nil {
		line("  predicted:  JCT %s, cost %v", fmtSec(a.JCTPredicted), a.CostPredicted)
		jctErr := TermError{Predicted: a.JCTPredicted, Measured: a.JCTMeasured}
		costErr := 0.0
		if a.CostMeasured != 0 {
			costErr = 100 * abs64(float64(a.CostPredicted-a.CostMeasured)) / float64(a.CostMeasured)
		}
		line("  error:      JCT %s (%.2f%%), cost %.2f%%", fmtSec(jctErr.Abs()), jctErr.PctError(), costErr)
	}
	line("critical path (duration = startup + compute + io + waiting)")
	for _, st := range a.Path.Stages {
		mem := "-"
		if st.MemoryMB > 0 {
			mem = fmt.Sprintf("%d MB", st.MemoryMB)
		}
		via := ""
		if st.Critical != "" {
			via = "  via " + st.Critical
		}
		line("  %-13s %s = %s + %s + %s + %s  @%s%s",
			st.Name, fmtSec(st.Duration),
			fmtSec(st.Terms.Startup), fmtSec(st.Terms.Compute),
			fmtSec(st.Terms.IO), fmtSec(st.Terms.Waiting), mem, via)
	}
	if len(a.Path.Chain) > 0 {
		line("  blocking chain: %s", strings.Join(a.Path.Chain, " -> "))
	}
	if a.Predicted == nil || len(a.Terms) == 0 {
		return b.String()
	}
	line("model accuracy (per stage, per term)")
	line("  %-13s %-8s %10s %10s %10s %8s", "stage", "term", "predicted", "measured", "abs err", "err%")
	for _, te := range a.Terms {
		line("  %-13s %-8s %10s %10s %10s %7.2f%%",
			te.Stage, te.Term, fmtSec(te.Predicted), fmtSec(te.Measured),
			fmtSec(te.Abs()), te.PctError())
	}
	line("per-tier stage MAPE")
	for _, t := range a.Tiers {
		tier := "(no lambda)"
		if t.MemoryMB > 0 {
			tier = fmt.Sprintf("%d MB", t.MemoryMB)
		}
		line("  %-12s %6.2f%% over %d stage(s)", tier, t.MAPEPct, t.Stages)
	}
	line("overall stage MAPE: %.2f%%", a.MAPEPct)
	return b.String()
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// permille converts a percentage to integer per-mille for gauge export.
func permille(pct float64) int64 { return int64(pct * 10) }

// Publish mirrors the audit's headline errors into the telemetry registry
// as astra_audit_* gauges. Percentages are exported as integer per-mille
// (gauges are int64); absolute errors as nanoseconds. Safe on a nil
// registry.
func (a *Audit) Publish(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Gauge(telemetry.MAuditStages).Set(int64(len(a.Path.Stages)))
	if a.Predicted == nil {
		return
	}
	jct := TermError{Predicted: a.JCTPredicted, Measured: a.JCTMeasured}
	reg.Gauge(telemetry.MAuditJCTAbsErrorNanos).Set(int64(jct.Abs()))
	reg.Gauge(telemetry.MAuditJCTErrorPermille).Set(permille(jct.PctError()))
	costErr := 0.0
	if a.CostMeasured != 0 {
		costErr = 100 * abs64(float64(a.CostPredicted-a.CostMeasured)) / float64(a.CostMeasured)
	}
	reg.Gauge(telemetry.MAuditCostErrorPermille).Set(permille(costErr))
	reg.Gauge(telemetry.MAuditStageMAPEPermille).Set(permille(a.MAPEPct))
	for _, te := range a.Terms {
		if te.Term != "total" {
			continue
		}
		reg.Gauge(StageGauge(te.Stage)).Set(int64(te.Abs()))
	}
}

// StageGauge derives the per-stage absolute-error gauge name (Prometheus
// charset: dashes become underscores).
func StageGauge(stage string) string {
	return "astra_audit_stage_abs_error_ns_" + strings.ReplaceAll(stage, "-", "_")
}
