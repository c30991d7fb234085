// Package qos implements the streaming QoS monitor: an online,
// observe-only consumer of a run's flight-recorder event stream that
// maintains, in virtual time, (a) per-stage predicted-vs-observed term
// errors with a CUSUM drift score per term, (b) a deadline-risk estimate
// (projected JCT, slack, and an on_track/at_risk/breached state with the
// exact virtual instant each transition fired), and (c) cost burn (spent
// vs predicted-at-this-point, wasted speculative/failed spend folded in).
// Across runs, outcomes aggregate into a per-tenant/per-job SLO ledger.
//
// The monitor is the sensing layer for closed-loop adaptive replanning
// (ROADMAP item 5): it quantifies how far reality has diverged from the
// plan's Eq. 16-22 promise while the job is still running, instead of
// discovering a blown deadline post-hoc.
//
// Determinism contract: every piece of monitor state is a pure fold over
// the recorded event stream. Risk-state crossings between events are
// computed analytically (schedule slip grows linearly while a milestone is
// overdue), so the recorded transition instants do not depend on when the
// driver happened to Poll — two identical runs report byte-identical
// transition sequences regardless of polling cadence or planning
// parallelism. Like the telemetry registry and the flight recorder, a nil
// *Monitor is a zero-cost no-op on every method and attaching one never
// changes the simulated outcome.
package qos

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"astra/internal/flight"
	"astra/internal/mapreduce"
	"astra/internal/pricing"
	"astra/internal/simtime"
	"astra/internal/telemetry"
)

// State is the monitor's deadline-risk verdict. Transitions are monotone
// (on_track -> at_risk -> breached): schedule slip is a running maximum,
// so a job that has fallen behind its predicted schedule never silently
// recovers its risk state — the replanner, not the monitor, decides
// whether recovery actions worked.
type State int

const (
	// OnTrack: the projected JCT is within the risk threshold.
	OnTrack State = iota
	// AtRisk: the projected JCT exceeds (1 - riskMargin) x deadline; the
	// deadline itself has not passed yet.
	AtRisk
	// Breached: the deadline passed with the run still incomplete.
	Breached
)

// String renders the state the way the /qos endpoint and the ledger
// report it.
func (s State) String() string {
	switch s {
	case AtRisk:
		return "at_risk"
	case Breached:
		return "breached"
	default:
		return "on_track"
	}
}

// termNames fixes the per-stage term order everywhere the monitor
// reports: the paper's Eq. 3-10 decomposition, matching flight.StageTerms.
var termNames = [4]string{"startup", "compute", "io", "waiting"}

// The monitor's fixed thresholds. riskMargin is the at_risk guard band:
// the monitor flips to at_risk when the projected JCT exceeds
// (1 - riskMargin) x deadline, so the warning strictly precedes the
// breach. driftSlack is the CUSUM slack k (per-task normalized error
// absorbed before the score accumulates) and driftThreshold the alarm
// level h.
const (
	riskMargin     = 0.05
	driftSlack     = 0.25
	driftThreshold = 1.0
)

// Options configures a Monitor. The zero value is usable once EnsurePlan
// supplies a predicted breakdown: deadline defaults to 1.5x the predicted
// JCT.
type Options struct {
	// Predicted is the plan's per-stage breakdown for the executed
	// configuration (Exact.PredictBreakdown). Left nil, EnsurePlan fills
	// it; without one the monitor tracks progress and cost only (no
	// drift scores, no deadline risk).
	Predicted *flight.Breakdown
	// Deadline is the QoS completion-time threshold (Eq. 20). Zero means
	// "1.5x the predicted JCT", resolved by EnsurePlan.
	Deadline time.Duration
	// Tenant and Job identify the run in the SLO ledger and snapshots.
	Tenant, Job string
	// Ledger, if set, receives the run's Outcome at EndRun.
	Ledger *Ledger
	// Telemetry, if set, receives astra_qos_* gauges and counters on
	// every Poll and at EndRun.
	Telemetry *telemetry.Registry
}

// Transition is one recorded monitor event: a deadline-risk state change
// (kind "risk") or a per-term drift alarm (kind "drift"). At is virtual
// time since the run start, so two identical runs serialize identical
// transitions regardless of when the wall clock started.
type Transition struct {
	Seq    int           `json:"seq"`
	Kind   string        `json:"kind"`
	State  string        `json:"state,omitempty"`
	Stage  string        `json:"stage,omitempty"`
	Term   string        `json:"term,omitempty"`
	At     time.Duration `json:"at_ns"`
	Reason string        `json:"reason"`
}

// invTrack accumulates one invocation's attributed intervals while it is
// in flight.
type invTrack struct {
	label      string
	schedStart simtime.Time
	compute    time.Duration
	io         time.Duration
	st         *stageTrack
}

// stageTrack is one driver stage lined up against its predicted schedule.
type stageTrack struct {
	name  string
	tasks int
	// milestone marks stages whose predicted cumulative end anchors the
	// deadline-risk projection. The coordinator is excluded: its lambda's
	// completion spans the step barriers it waits on (Eq. 14 bills the
	// full span), so its done event is not a schedule milestone — but its
	// predicted duration still offsets the steps behind it.
	milestone bool
	// predEnd is the stage's predicted cumulative end, relative to run
	// start (breakdown stage durations sum to the predicted JCT).
	predEnd time.Duration
	predDur time.Duration
	pred    flight.StageTerms

	done       map[string]bool
	completed  bool
	completeAt time.Duration
	obsSum     [4]time.Duration
	obsN       int
	cusum      [4]float64
	drifted    [4]bool
}

// Monitor is a streaming QoS monitor for one run at a time (BeginRun
// resets it; reuse sequentially, with a shared Ledger carrying history
// across runs). All methods are nil-receiver-safe no-ops and safe for
// concurrent use: the driver polls from inside the simulation while SSE
// handlers snapshot from serving goroutines.
type Monitor struct {
	mu sync.Mutex

	pred     *flight.Breakdown
	sheet    *pricing.Sheet
	deadline time.Duration
	tenant   string
	job      string
	ledger   *Ledger
	tel      *telemetry.Registry

	rec     *flight.Recorder
	began   bool
	ended   bool
	t0      simtime.Time
	clock   simtime.Time
	end     simtime.Time
	lastSeq int64

	stages []*stageTrack
	byName map[string]*stageTrack
	invs   map[int64]*invTrack

	state       State
	slip        time.Duration
	transitions []Transition
	drifted     int

	lambdaUSD pricing.USD
	wastedUSD pricing.USD
	gets      int64
	puts      int64
}

// New creates a monitor. A nil return is never produced; a nil *Monitor
// is nonetheless safe everywhere it can be attached.
func New(o Options) *Monitor {
	return &Monitor{
		pred:     o.Predicted,
		deadline: o.Deadline,
		tenant:   o.Tenant,
		job:      o.Job,
		ledger:   o.Ledger,
		tel:      o.Telemetry,
	}
}

// EnsurePlan fills the monitor's unset plan inputs: the predicted
// breakdown (drift references and the milestone schedule), the price
// sheet (cost burn), and — when no explicit deadline was configured — a
// default deadline of 1.5x the predicted JCT. Explicitly-set options are
// never overridden, so callers can layer it after their own Options.
func (m *Monitor) EnsurePlan(bd *flight.Breakdown, sheet *pricing.Sheet) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pred == nil {
		m.pred = bd
	}
	if m.sheet == nil {
		m.sheet = sheet
	}
	if m.deadline <= 0 && m.pred != nil {
		m.deadline = m.pred.JCT + m.pred.JCT/2
	}
}

// riskThresholdLocked is the projected-JCT level that flips on_track to
// at_risk: (1 - margin) x deadline.
func (m *Monitor) riskThresholdLocked() time.Duration {
	return m.deadline - time.Duration(riskMargin*float64(m.deadline))
}

// BeginRun resets the monitor for one run: it anchors at the recorder's
// current sequence number, lines the driver's stage plan up against the
// predicted breakdown, and (when the plan alone already exceeds the risk
// threshold) records an immediate at_risk transition at t=0.
func (m *Monitor) BeginRun(rec *flight.Recorder, t0 simtime.Time, stages []mapreduce.QoSStage) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rec = rec
	m.began, m.ended = true, false
	m.t0, m.clock, m.end = t0, t0, 0
	m.lastSeq = rec.Seq()
	m.invs = make(map[int64]*invTrack)
	m.state, m.slip = OnTrack, 0
	m.transitions = nil
	m.drifted = 0
	m.lambdaUSD, m.wastedUSD, m.gets, m.puts = 0, 0, 0, 0

	want := make(map[string]int, len(stages))
	order := make([]string, 0, len(stages))
	for _, st := range stages {
		want[st.Name] = st.Tasks
		order = append(order, st.Name)
	}
	m.stages = m.stages[:0]
	m.byName = make(map[string]*stageTrack, len(stages))
	add := func(tr *stageTrack) {
		tr.done = make(map[string]bool, tr.tasks)
		m.stages = append(m.stages, tr)
		m.byName[tr.name] = tr
	}
	if m.pred != nil {
		// Predicted stages in breakdown order carry the cumulative
		// schedule; cumulative ends are conservative (each includes the
		// full predicted orchestration overhead ahead of the stage), so a
		// run matching the model produces zero slip.
		cum := time.Duration(0)
		for _, ps := range m.pred.Stages {
			cum += ps.Duration
			tasks, ok := want[ps.Name]
			if !ok {
				continue
			}
			delete(want, ps.Name)
			add(&stageTrack{
				name: ps.Name, tasks: tasks,
				milestone: ps.Name != "coordinator",
				predEnd:   cum, predDur: ps.Duration, pred: ps.Terms,
			})
		}
	}
	// Driver stages with no predicted counterpart (measurement-only
	// monitors, or orchestration variants the breakdown does not model):
	// progress-tracked, but neither drift-scored nor milestones.
	for _, name := range order {
		if tasks, ok := want[name]; ok {
			add(&stageTrack{name: name, tasks: tasks})
		}
	}

	if m.pred != nil && m.deadline > 0 && m.pred.JCT > m.riskThresholdLocked() {
		m.setStateLocked(AtRisk, 0, fmt.Sprintf(
			"planned JCT %v already exceeds the risk threshold %v (deadline %v)",
			m.pred.JCT, m.riskThresholdLocked(), m.deadline))
	}
	m.publishLocked()
}

// Poll consumes newly recorded events and advances the risk clock to now.
// Polling cadence affects only when live snapshots update — recorded
// transitions are a pure function of the event stream.
func (m *Monitor) Poll(now simtime.Time) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.began || m.ended {
		return
	}
	m.ingestLocked()
	m.advanceLocked(now)
	m.publishLocked()
}

// EndRun folds the run's remaining events (speculative-loser drain and
// phase markers included), settles the final state, and records the
// outcome into the ledger. Events timestamped after the JCT (drained
// losers die at their next platform call) still bill into cost burn, but
// never advance risk past the run end.
func (m *Monitor) EndRun(end simtime.Time) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.began || m.ended {
		return
	}
	m.ended, m.end = true, end
	m.ingestLocked()
	m.advanceLocked(end)
	if m.ledger != nil {
		jct := end - m.t0
		attained := m.deadline <= 0 || jct <= m.deadline
		m.ledger.Record(Outcome{
			Tenant:     m.tenant,
			Job:        m.job,
			Deadline:   m.deadline,
			JCT:        jct,
			Attained:   attained,
			FinalState: m.state,
			Reason:     m.breachReasonLocked(attained),
			CostUSD:    m.spentLocked(),
			WastedUSD:  m.wastedUSD,
		})
		m.ledger.Publish(m.tel)
	}
	m.publishLocked()
}

// breachReasonLocked categorizes a missed deadline for the ledger: the
// deadline verdict, refined with the first drifted (stage, term) when
// drift was detected — the first diagnosis a replanner would reach for.
func (m *Monitor) breachReasonLocked(attained bool) string {
	if attained {
		return ""
	}
	for _, st := range m.stages {
		for i, d := range st.drifted {
			if d {
				return fmt.Sprintf("deadline_exceeded (drift: %s/%s)", st.name, termNames[i])
			}
		}
	}
	return "deadline_exceeded"
}

// ingestLocked folds every event recorded since the last fold, in place
// in the recorder's ring: the fold runs under the recorder's lock, taken
// after the monitor's own. The recorder calls nothing back, so that is
// the only order the two locks nest in — and nothing under applyLocked
// may call the recorder, which would wait on a lock its own goroutine
// holds (TestFoldNeverCallsTheRecorder).
func (m *Monitor) ingestLocked() {
	if m.rec == nil {
		return
	}
	m.rec.VisitSince(m.lastSeq, func(ev *flight.Event) {
		m.applyLocked(ev)
		m.lastSeq = ev.Seq
	})
}

// applyLocked folds one event.
func (m *Monitor) applyLocked(ev *flight.Event) {
	m.advanceLocked(ev.Time)
	switch ev.Kind {
	case flight.KindInvokeScheduled:
		it := &invTrack{label: ev.Label, schedStart: ev.Start}
		it.st = m.stageForLabelLocked(ev.Label)
		m.invs[ev.Inv] = it
	case flight.KindCompute:
		if it := m.invs[ev.Inv]; it != nil {
			it.compute += ev.Time - ev.Start
		}
	case flight.KindInvokeDone:
		m.billLocked(ev, false)
		m.completeTaskLocked(ev)
	case flight.KindInvokeTimeout, flight.KindInvokeError, flight.KindInvokeCanceled:
		m.billLocked(ev, true)
	default:
		if !ev.Kind.IsStore() {
			return
		}
		if it := m.invs[ev.Inv]; it != nil {
			it.io += ev.Time - ev.Start
		}
		switch ev.Kind {
		case flight.KindStoreGet:
			m.gets++
		case flight.KindStorePut:
			m.puts++
		}
	}
}

// billLocked charges one terminal invocation event: quantum-rounded
// duration billing plus the flat invocation fee (Eq. 13-15's W and I
// terms). Timeouts, errors and cancelled speculative losers bill into
// wasted as well. Storage-duration and workflow fees accrue at
// run granularity, not per event, and are excluded from the burn.
func (m *Monitor) billLocked(ev *flight.Event, wasted bool) {
	if m.sheet == nil {
		return
	}
	c := m.sheet.Lambda.DurationCost(ev.MemoryMB, ev.Time-ev.Start) +
		m.sheet.Lambda.InvocationCost(1)
	m.lambdaUSD += c
	if wasted {
		m.wastedUSD += c
	}
}

// spentLocked is the running bill: lambda spend plus store request fees.
func (m *Monitor) spentLocked() pricing.USD {
	if m.sheet == nil {
		return 0
	}
	return m.lambdaUSD + m.sheet.Store.RequestCost(m.gets, m.puts)
}

// completeTaskLocked marks a task label done on a successful completion
// and feeds the stage's drift scores with the task's observed terms.
func (m *Monitor) completeTaskLocked(ev *flight.Event) {
	it := m.invs[ev.Inv]
	if it == nil || it.st == nil || it.st.done[it.label] {
		return
	}
	st := it.st
	st.done[it.label] = true
	m.observeTermsLocked(st, it, ev)
	if !st.completed && st.tasks > 0 && len(st.done) >= st.tasks {
		st.completed = true
		st.completeAt = ev.Time - m.t0
	}
}

// observeTermsLocked decomposes one completed task into the per-stage
// terms and updates the stage's one-sided CUSUM scores: x is the task's
// error normalized by the predicted term (floored at 1% of the stage
// duration so near-zero terms don't explode the score), and the score
// accumulates max(0, S + x - k). Clean runs keep S at zero because
// observed per-task terms are bounded by the predicted critical task's.
func (m *Monitor) observeTermsLocked(st *stageTrack, it *invTrack, ev *flight.Event) {
	total := ev.Time - it.schedStart
	startup := ev.Start - it.schedStart
	waiting := total - startup - it.compute - it.io
	obs := [4]time.Duration{startup, it.compute, it.io, waiting}
	for i := range obs {
		st.obsSum[i] += obs[i]
	}
	st.obsN++
	if st.predDur <= 0 {
		return
	}
	pred := [4]time.Duration{st.pred.Startup, st.pred.Compute, st.pred.IO, st.pred.Waiting}
	floor := st.predDur / 100
	if floor < time.Millisecond {
		floor = time.Millisecond
	}
	for i := range obs {
		if st.name == "coordinator" && termNames[i] == "waiting" {
			// The coordinator's measured span includes the step barriers
			// it waits on (Eq. 14 bills the full span); its waiting
			// residual is structural, not drift.
			continue
		}
		denom := pred[i]
		if denom < floor {
			denom = floor
		}
		x := float64(obs[i]-pred[i]) / float64(denom)
		s := st.cusum[i] + x - driftSlack
		if s < 0 {
			s = 0
		}
		st.cusum[i] = s
		if s >= driftThreshold && !st.drifted[i] {
			st.drifted[i] = true
			m.drifted++
			m.appendTransitionLocked(Transition{
				Kind: "drift", Stage: st.name, Term: termNames[i],
				At: ev.Time - m.t0,
				Reason: fmt.Sprintf("cusum %.2f >= %.2f after task %s",
					s, driftThreshold, it.label),
			})
		}
	}
}

// advanceLocked moves the risk clock to t, updating schedule slip against
// the earliest incomplete milestone and recording any state crossing at
// its exact analytic instant. Once the run has ended, t is capped at the
// recorded end so post-JCT billing events never extend the risk window.
func (m *Monitor) advanceLocked(t simtime.Time) {
	if m.ended && t > m.end {
		t = m.end
	}
	if t <= m.clock {
		return
	}
	m.clock = t
	if m.pred == nil || m.deadline <= 0 {
		return
	}
	var e *stageTrack
	for _, st := range m.stages {
		if st.milestone && !st.completed {
			e = st
			break
		}
	}
	rel := t - m.t0
	if e != nil && rel > e.predEnd {
		if s := rel - e.predEnd; s > m.slip {
			m.slip = s
		}
	}
	theta := m.riskThresholdLocked()
	if m.state == OnTrack && m.pred.JCT+m.slip > theta {
		// The slip crossed (theta - predicted JCT) while milestone e was
		// overdue; slip grows linearly there, so the crossing instant is
		// exact: predEnd + (theta - predJCT), never before the milestone
		// itself became overdue.
		at := rel
		if e != nil {
			at = e.predEnd + (theta - m.pred.JCT)
			if at < e.predEnd {
				at = e.predEnd
			}
		}
		m.setStateLocked(AtRisk, at, fmt.Sprintf(
			"projected JCT %v exceeds risk threshold %v (predicted %v, slip %v, deadline %v)",
			m.pred.JCT+m.slip, theta, m.pred.JCT, m.slip, m.deadline))
	}
	if m.state != Breached && rel > m.deadline {
		m.setStateLocked(Breached, m.deadline, fmt.Sprintf(
			"run still incomplete at the deadline %v", m.deadline))
	}
}

func (m *Monitor) setStateLocked(s State, at time.Duration, reason string) {
	m.state = s
	m.appendTransitionLocked(Transition{Kind: "risk", State: s.String(), At: at, Reason: reason})
}

func (m *Monitor) appendTransitionLocked(tr Transition) {
	tr.Seq = len(m.transitions) + 1
	m.transitions = append(m.transitions, tr)
}

// stageForLabelLocked maps an invocation label to its stage: the driver
// labels mappers "map-N", the coordinator "coordinator", and step-P
// reducers "red-P-R" (speculative attempts reuse the primary's label, so
// attempts of one task land on one stage entry).
func (m *Monitor) stageForLabelLocked(label string) *stageTrack {
	switch {
	case strings.HasPrefix(label, "map-"):
		return m.byName["map"]
	case label == "coordinator":
		return m.byName["coordinator"]
	case strings.HasPrefix(label, "red-"):
		rest := label[len("red-"):]
		if i := strings.IndexByte(rest, '-'); i > 0 {
			if p, err := strconv.Atoi(rest[:i]); err == nil {
				return m.byName[fmt.Sprintf("step-%02d", p)]
			}
		}
	}
	return nil
}

// projectedLocked is the monitor's JCT estimate: the measured JCT once
// the run ended, otherwise the predicted JCT plus the observed schedule
// slip.
func (m *Monitor) projectedLocked() time.Duration {
	if m.ended {
		return m.end - m.t0
	}
	if m.pred == nil {
		return 0
	}
	return m.pred.JCT + m.slip
}

// TransitionsSince returns the transitions with Seq > after, oldest
// first — the /qos SSE resume primitive.
func (m *Monitor) TransitionsSince(after int) []Transition {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if after < 0 {
		after = 0
	}
	if after >= len(m.transitions) {
		return nil
	}
	out := make([]Transition, len(m.transitions)-after)
	copy(out, m.transitions[after:])
	return out
}

// State reports the current deadline-risk state.
func (m *Monitor) State() State {
	if m == nil {
		return OnTrack
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

// TermStatus is one term's drift line in a snapshot.
type TermStatus struct {
	Term      string        `json:"term"`
	Predicted time.Duration `json:"predicted_ns"`
	// ObservedMean is the mean observed per-task value (0 before any task
	// of the stage completed).
	ObservedMean time.Duration `json:"observed_mean_ns"`
	Score        float64       `json:"score"`
	Drifted      bool          `json:"drifted"`
}

// StageStatus is one stage's progress and drift lines in a snapshot.
type StageStatus struct {
	Name        string        `json:"name"`
	Tasks       int           `json:"tasks"`
	Done        int           `json:"done"`
	Completed   bool          `json:"completed"`
	Milestone   bool          `json:"milestone"`
	PredEnd     time.Duration `json:"pred_end_ns"`
	CompletedAt time.Duration `json:"completed_at_ns,omitempty"`
	Terms       []TermStatus  `json:"terms,omitempty"`
}

// CostStatus is the burn section of a snapshot.
type CostStatus struct {
	SpentUSD     float64 `json:"spent_usd"`
	PredictedUSD float64 `json:"predicted_usd"`
	WastedUSD    float64 `json:"wasted_usd"`
}

// Snapshot is a frozen monitor state, JSON-stable: stages in schedule
// order, terms in the fixed startup/compute/io/waiting order, transitions
// in firing order.
type Snapshot struct {
	Tenant string `json:"tenant,omitempty"`
	Job    string `json:"job,omitempty"`
	State  string `json:"state"`
	Began  bool   `json:"began"`
	Ended  bool   `json:"ended"`

	Elapsed      time.Duration `json:"elapsed_ns"`
	Deadline     time.Duration `json:"deadline_ns"`
	PredictedJCT time.Duration `json:"predicted_jct_ns"`
	ProjectedJCT time.Duration `json:"projected_jct_ns"`
	Slack        time.Duration `json:"slack_ns"`
	Slip         time.Duration `json:"slip_ns"`

	Stages       []StageStatus `json:"stages,omitempty"`
	Cost         CostStatus    `json:"cost"`
	DriftedTerms int           `json:"drifted_terms"`
	Transitions  []Transition  `json:"transitions,omitempty"`
}

// Snapshot freezes the monitor's current state.
func (m *Monitor) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{State: OnTrack.String()}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := Snapshot{
		Tenant:       m.tenant,
		Job:          m.job,
		State:        m.state.String(),
		Began:        m.began,
		Ended:        m.ended,
		Elapsed:      m.clock - m.t0,
		Deadline:     m.deadline,
		ProjectedJCT: m.projectedLocked(),
		Slip:         m.slip,
		DriftedTerms: m.drifted,
	}
	if m.pred != nil {
		snap.PredictedJCT = m.pred.JCT
	}
	if m.deadline > 0 {
		snap.Slack = m.deadline - snap.ProjectedJCT
	}
	snap.Cost.SpentUSD = float64(m.spentLocked())
	snap.Cost.WastedUSD = float64(m.wastedUSD)
	if m.pred != nil && m.pred.JCT > 0 {
		frac := float64(snap.Elapsed) / float64(m.pred.JCT)
		if frac > 1 {
			frac = 1
		}
		snap.Cost.PredictedUSD = float64(m.pred.CostUSD) * frac
	}
	for _, st := range m.stages {
		ss := StageStatus{
			Name: st.name, Tasks: st.tasks, Done: len(st.done),
			Completed: st.completed, Milestone: st.milestone,
			PredEnd: st.predEnd, CompletedAt: st.completeAt,
		}
		if st.predDur > 0 {
			pred := [4]time.Duration{st.pred.Startup, st.pred.Compute, st.pred.IO, st.pred.Waiting}
			for i := range termNames {
				ts := TermStatus{
					Term: termNames[i], Predicted: pred[i],
					Score: st.cusum[i], Drifted: st.drifted[i],
				}
				if st.obsN > 0 {
					ts.ObservedMean = st.obsSum[i] / time.Duration(st.obsN)
				}
				ss.Terms = append(ss.Terms, ts)
			}
		}
		snap.Stages = append(snap.Stages, ss)
	}
	if len(m.transitions) > 0 {
		snap.Transitions = make([]Transition, len(m.transitions))
		copy(snap.Transitions, m.transitions)
	}
	return snap
}

// microUSD encodes a dollar amount for an integer gauge.
func microUSD(v pricing.USD) int64 { return int64(float64(v) * 1e6) }

// publishLocked mirrors the monitor's headline state into the telemetry
// registry as astra_qos_* series. Counters are raised to the monitor's
// totals (never incremented blindly), so repeated publishes are
// idempotent.
func (m *Monitor) publishLocked() {
	if m.tel == nil {
		return
	}
	m.tel.Gauge(telemetry.MQoSState).Set(int64(m.state))
	m.tel.Gauge(telemetry.MQoSDeadlineNanos).Set(int64(m.deadline))
	if m.pred != nil {
		m.tel.Gauge(telemetry.MQoSPredictedJCTNanos).Set(int64(m.pred.JCT))
	}
	proj := m.projectedLocked()
	m.tel.Gauge(telemetry.MQoSProjectedJCTNanos).Set(int64(proj))
	if m.deadline > 0 {
		m.tel.Gauge(telemetry.MQoSSlackNanos).Set(int64(m.deadline - proj))
	}
	m.tel.Gauge(telemetry.MQoSSlipNanos).Set(int64(m.slip))
	m.tel.Gauge(telemetry.MQoSDriftedTerms).Set(int64(m.drifted))
	m.tel.Gauge(telemetry.MQoSSpentMicroUSD).Set(microUSD(m.spentLocked()))
	m.tel.Gauge(telemetry.MQoSWastedMicroUSD).Set(microUSD(m.wastedUSD))
	if m.pred != nil && m.pred.JCT > 0 {
		frac := float64(m.clock-m.t0) / float64(m.pred.JCT)
		if frac > 1 {
			frac = 1
		}
		m.tel.Gauge(telemetry.MQoSPredictedMicroUSD).Set(microUSD(pricing.USD(float64(m.pred.CostUSD) * frac)))
	}
	raiseCounter(m.tel, telemetry.MQoSTransitions, int64(len(m.transitions)))
}

// raiseCounter lifts a counter to an externally-tracked total without
// double-counting across publishes. Raise-to-total is sound only for a
// series nothing else increments. The read-then-add is not atomic: two
// racing publishes can overshoot, but only until the growing total
// catches up (later publishes add nothing meanwhile), whereas an inline
// Add landing between the two steps would be counted twice for good.
// Every astra_qos_* counter is written only from here.
func raiseCounter(reg *telemetry.Registry, name string, total int64) {
	c := reg.Counter(name)
	if d := total - c.Value(); d > 0 {
		c.Add(d)
	}
}
