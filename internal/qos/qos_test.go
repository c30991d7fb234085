package qos

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"astra/internal/flight"
	"astra/internal/mapreduce"
	"astra/internal/pricing"
	"astra/internal/simtime"
	"astra/internal/telemetry"
)

// testBreakdown is a synthetic predicted schedule: map 10s, coordinator
// 2s, one reducing step 8s — predicted JCT 20s.
func testBreakdown() *flight.Breakdown {
	return &flight.Breakdown{
		JCT:     20 * time.Second,
		CostUSD: 1.0,
		Stages: []flight.Stage{
			{Name: "map", Duration: 10 * time.Second, Terms: flight.StageTerms{
				Startup: 1 * time.Second, Compute: 5 * time.Second,
				IO: 3 * time.Second, Waiting: 1 * time.Second}},
			{Name: "coordinator", Duration: 2 * time.Second, Terms: flight.StageTerms{
				Startup: 500 * time.Millisecond, Compute: 1 * time.Second,
				IO: 500 * time.Millisecond}},
			{Name: "step-00", Duration: 8 * time.Second, Terms: flight.StageTerms{
				Startup: 1 * time.Second, Compute: 4 * time.Second,
				IO: 2 * time.Second, Waiting: 1 * time.Second}},
		},
	}
}

func testStages() []mapreduce.QoSStage {
	return []mapreduce.QoSStage{
		{Name: "map", Tasks: 2},
		{Name: "coordinator", Tasks: 1},
		{Name: "step-00", Tasks: 2},
	}
}

// TestRiskCrossingInstantIsAnalytic: with the map milestone predicted to
// end at 10s, predicted JCT 20s, deadline 30s and a 5% margin (threshold
// 28.5s), an overdue map stage must flip at_risk at exactly
// 10s + (28.5s - 20s) = 18.5s and breach at exactly the 30s deadline —
// regardless of when Poll happens to run.
func TestRiskCrossingInstantIsAnalytic(t *testing.T) {
	mk := func() *Monitor {
		m := New(Options{Predicted: testBreakdown(), Deadline: 30 * time.Second})
		m.BeginRun(nil, 0, testStages())
		return m
	}
	coarse := mk()
	coarse.Poll(40 * time.Second)
	fine := mk()
	for _, at := range []time.Duration{9 * time.Second, 18 * time.Second,
		19 * time.Second, 28 * time.Second, 31 * time.Second, 40 * time.Second} {
		fine.Poll(simtime.Time(at))
	}
	for name, m := range map[string]*Monitor{"coarse": coarse, "fine": fine} {
		txs := m.TransitionsSince(0)
		if len(txs) != 2 {
			t.Fatalf("%s: got %d transitions, want 2: %+v", name, len(txs), txs)
		}
		if txs[0].State != "at_risk" || txs[0].At != 18500*time.Millisecond {
			t.Fatalf("%s: at_risk transition %+v, want at 18.5s", name, txs[0])
		}
		if txs[1].State != "breached" || txs[1].At != 30*time.Second {
			t.Fatalf("%s: breach transition %+v, want at 30s", name, txs[1])
		}
	}
}

// TestOnScheduleRunStaysOnTrack: completing every milestone on or ahead
// of its predicted end accumulates no slip and records no transitions.
func TestOnScheduleRunStaysOnTrack(t *testing.T) {
	rec := flight.New()
	m := New(Options{Predicted: testBreakdown(), Deadline: 30 * time.Second})
	m.BeginRun(rec, 0, testStages())
	// Each task's terms track the prediction: 1s startup, the predicted
	// compute span, and the remainder attributed to I/O, leaving a zero
	// waiting residual.
	emitTask := func(inv int64, label string, start, end, compute time.Duration) {
		begin := start + time.Second
		rec.Emit(flight.Event{Kind: flight.KindInvokeScheduled, Inv: inv,
			Label: label, Start: simtime.Time(start), Time: simtime.Time(start)})
		if compute > 0 {
			rec.Emit(flight.Event{Kind: flight.KindCompute, Inv: inv,
				Start: simtime.Time(begin), Time: simtime.Time(begin + compute)})
			rec.Emit(flight.Event{Kind: flight.KindStoreGet, Inv: inv,
				Start: simtime.Time(begin + compute), Time: simtime.Time(end)})
		}
		rec.Emit(flight.Event{Kind: flight.KindInvokeDone, Inv: inv, Label: label,
			Start: simtime.Time(begin), Time: simtime.Time(end),
			MemoryMB: 1024})
	}
	emitTask(1, "map-0", 0, 8*time.Second, 5*time.Second)
	emitTask(2, "map-1", 0, 9*time.Second, 5*time.Second)
	m.Poll(9 * time.Second)
	emitTask(3, "red-0-0", 12*time.Second, 18*time.Second, 4*time.Second)
	emitTask(4, "red-0-1", 12*time.Second, 19*time.Second, 4*time.Second)
	emitTask(5, "coordinator", 10*time.Second, 19500*time.Millisecond, 0)
	m.EndRun(19500 * time.Millisecond)
	snap := m.Snapshot()
	if snap.State != "on_track" || len(snap.Transitions) != 0 {
		t.Fatalf("on-schedule run left on_track: %+v", snap)
	}
	if snap.Slip != 0 {
		t.Fatalf("on-schedule run slipped %v", snap.Slip)
	}
	if snap.ProjectedJCT != 19500*time.Millisecond {
		t.Fatalf("ended projection %v, want measured 19.5s", snap.ProjectedJCT)
	}
}

// TestPlannedOverrunIsAtRiskFromStart: when the plan alone exceeds the
// risk threshold, the monitor flags at_risk at t=0.
func TestPlannedOverrunIsAtRiskFromStart(t *testing.T) {
	m := New(Options{Predicted: testBreakdown(), Deadline: 20 * time.Second})
	m.BeginRun(nil, 0, testStages())
	txs := m.TransitionsSince(0)
	if len(txs) != 1 || txs[0].State != "at_risk" || txs[0].At != 0 {
		t.Fatalf("planned overrun not flagged at t=0: %+v", txs)
	}
}

// TestDriftCUSUM: a stage whose observed compute term blows past the
// prediction must raise exactly one drift transition for (map, compute),
// while on-prediction terms stay quiet.
func TestDriftCUSUM(t *testing.T) {
	rec := flight.New()
	m := New(Options{Predicted: testBreakdown(), Deadline: time.Hour})
	m.BeginRun(rec, 0, testStages())
	// Task map-0: startup 1s (as predicted), compute 15s (predicted 5s:
	// normalized error (15-5)/5 = 2.0 >= k + h), no IO.
	rec.Emit(flight.Event{Kind: flight.KindInvokeScheduled, Inv: 1, Label: "map-0",
		Start: 0, Time: 0})
	rec.Emit(flight.Event{Kind: flight.KindCompute, Inv: 1,
		Start: simtime.Time(time.Second), Time: simtime.Time(16 * time.Second)})
	rec.Emit(flight.Event{Kind: flight.KindInvokeDone, Inv: 1, Label: "map-0",
		Start: simtime.Time(time.Second), Time: simtime.Time(16 * time.Second),
		MemoryMB: 1024})
	m.Poll(16 * time.Second)
	var drifts []Transition
	for _, tr := range m.TransitionsSince(0) {
		if tr.Kind == "drift" {
			drifts = append(drifts, tr)
		}
	}
	if len(drifts) != 1 {
		t.Fatalf("got %d drift transitions, want 1: %+v", len(drifts), drifts)
	}
	if drifts[0].Stage != "map" || drifts[0].Term != "compute" {
		t.Fatalf("drift attributed to %s/%s, want map/compute", drifts[0].Stage, drifts[0].Term)
	}
	snap := m.Snapshot()
	if snap.DriftedTerms != 1 {
		t.Fatalf("snapshot drifted terms %d, want 1", snap.DriftedTerms)
	}
}

// TestCostBurnBillsTerminalEvents: terminal invocation events bill
// duration + invocation fees; failed attempts land in wasted too.
func TestCostBurnBillsTerminalEvents(t *testing.T) {
	sheet := pricing.AWS()
	rec := flight.New()
	m := New(Options{Deadline: time.Hour})
	m.EnsurePlan(testBreakdown(), sheet)
	m.BeginRun(rec, 0, testStages())
	rec.Emit(flight.Event{Kind: flight.KindInvokeScheduled, Inv: 1, Label: "map-0"})
	rec.Emit(flight.Event{Kind: flight.KindInvokeDone, Inv: 1, Label: "map-0",
		Start: 0, Time: simtime.Time(10 * time.Second), MemoryMB: 1024})
	rec.Emit(flight.Event{Kind: flight.KindInvokeScheduled, Inv: 2, Label: "map-1"})
	rec.Emit(flight.Event{Kind: flight.KindInvokeError, Inv: 2, Label: "map-1",
		Start: 0, Time: simtime.Time(5 * time.Second), MemoryMB: 1024})
	rec.Emit(flight.Event{Kind: flight.KindStoreGet, Inv: 1, Bucket: "b", Key: "k",
		Start: 0, Time: simtime.Time(time.Second)})
	m.Poll(10 * time.Second)
	snap := m.Snapshot()
	wantOK := sheet.Lambda.DurationCost(1024, 10*time.Second) + sheet.Lambda.InvocationCost(1)
	wantBad := sheet.Lambda.DurationCost(1024, 5*time.Second) + sheet.Lambda.InvocationCost(1)
	wantSpent := float64(wantOK + wantBad + sheet.Store.RequestCost(1, 0))
	if snap.Cost.SpentUSD != wantSpent {
		t.Fatalf("spent %v, want %v", snap.Cost.SpentUSD, wantSpent)
	}
	if snap.Cost.WastedUSD != float64(wantBad) {
		t.Fatalf("wasted %v, want %v", snap.Cost.WastedUSD, float64(wantBad))
	}
}

// TestPollFoldsEachEventOnceWhileTheRingFills: Poll folds the recorder's
// new events in place, under the recorder's lock, while holding its own
// — the one order the two locks are ever taken in. With writers
// appending, a poller folding and a reader taking snapshots all at once,
// every event is folded exactly once and nothing deadlocks.
func TestPollFoldsEachEventOnceWhileTheRingFills(t *testing.T) {
	const writers, perWriter = 2, 3000
	rec := flight.NewWithCapacity(2 * writers * perWriter)
	m := New(Options{Deadline: time.Hour})
	m.EnsurePlan(testBreakdown(), pricing.AWS())
	m.BeginRun(rec, 0, testStages())
	var emit, watch sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		emit.Add(1)
		go func() {
			defer emit.Done()
			for i := 0; i < perWriter; i++ {
				rec.Emit(flight.Event{Kind: flight.KindStoreGet, Bucket: "b", Key: "k"})
			}
		}()
	}
	for _, loop := range []func(){
		func() { m.Poll(0) },
		func() { _ = m.Snapshot() },
	} {
		watch.Add(1)
		go func(loop func()) {
			defer watch.Done()
			for {
				select {
				case <-stop:
					return
				default:
					loop()
					runtime.Gosched()
				}
			}
		}(loop)
	}
	emit.Wait()
	close(stop)
	watch.Wait()
	m.Poll(0)
	m.mu.Lock()
	gets, lastSeq := m.gets, m.lastSeq
	m.mu.Unlock()
	if gets != writers*perWriter || lastSeq != rec.Seq() {
		t.Fatalf("folded %d gets up to seq %d, want %d up to %d", gets, lastSeq, writers*perWriter, rec.Seq())
	}
}

// TestEnsurePlanDefaultsDeadline: an unset deadline defaults to 1.5x the
// predicted JCT, and explicit options are never overridden.
func TestEnsurePlanDefaultsDeadline(t *testing.T) {
	m := New(Options{})
	m.EnsurePlan(testBreakdown(), pricing.AWS())
	if got := m.Snapshot().Deadline; got != 30*time.Second {
		t.Fatalf("default deadline %v, want 30s", got)
	}
	m2 := New(Options{Deadline: 7 * time.Second})
	m2.EnsurePlan(testBreakdown(), pricing.AWS())
	if got := m2.Snapshot().Deadline; got != 7*time.Second {
		t.Fatalf("explicit deadline overridden: %v", got)
	}
}

// TestLedgerAggregation: outcomes aggregate per (tenant, job) with
// deterministic ordering, windowed burn rates, and idempotent publishing.
func TestLedgerAggregation(t *testing.T) {
	l := NewLedger()
	l.Record(Outcome{Tenant: "b", Job: "sort", Attained: true, CostUSD: 1})
	l.Record(Outcome{Tenant: "a", Job: "wc", Attained: false,
		Reason: "deadline_exceeded", CostUSD: 2, WastedUSD: 0.5})
	l.Record(Outcome{Tenant: "a", Job: "wc", Attained: true, CostUSD: 1})
	snap := l.Snapshot()
	if snap.Runs != 3 || snap.Attained != 2 || snap.Breached != 1 {
		t.Fatalf("totals %+v", snap)
	}
	if len(snap.Entries) != 2 || snap.Entries[0].Tenant != "a" || snap.Entries[1].Tenant != "b" {
		t.Fatalf("entry order %+v", snap.Entries)
	}
	e := snap.Entries[0]
	if e.Runs != 2 || e.AttainmentRate != 0.5 || e.WindowRuns != 2 || e.WindowBurnRate != 0.5 {
		t.Fatalf("entry a/wc %+v", e)
	}
	if len(e.BreachReasons) != 1 || e.BreachReasons[0].Reason != "deadline_exceeded" {
		t.Fatalf("breach reasons %+v", e.BreachReasons)
	}
	reg := telemetry.New()
	l.Publish(reg)
	l.Publish(reg) // must not double-count
	if got := reg.Counter(telemetry.MQoSSLORuns).Value(); got != 3 {
		t.Fatalf("published runs %d, want 3", got)
	}
	if got := reg.Counter(telemetry.MQoSSLOAttained).Value(); got != 2 {
		t.Fatalf("published attained %d, want 2", got)
	}
}

// TestMonitorRecordsLedgerOutcome: EndRun settles the run into the
// attached ledger with the breach category.
func TestMonitorRecordsLedgerOutcome(t *testing.T) {
	l := NewLedger()
	m := New(Options{Predicted: testBreakdown(), Deadline: 30 * time.Second,
		Tenant: "t", Job: "j", Ledger: l})
	m.BeginRun(nil, 0, testStages())
	m.Poll(40 * time.Second)
	m.EndRun(45 * time.Second)
	snap := l.Snapshot()
	if snap.Runs != 1 || snap.Breached != 1 {
		t.Fatalf("ledger %+v", snap)
	}
	if r := snap.Entries[0].BreachReasons; len(r) != 1 || r[0].Reason != "deadline_exceeded" {
		t.Fatalf("breach reasons %+v", r)
	}
	// EndRun is idempotent: a second call must not double-record.
	m.EndRun(45 * time.Second)
	if got := l.Snapshot().Runs; got != 1 {
		t.Fatalf("double EndRun recorded %d runs", got)
	}
}

// TestNilSafety: every method on nil receivers is a no-op.
func TestNilSafety(t *testing.T) {
	var m *Monitor
	m.EnsurePlan(testBreakdown(), pricing.AWS())
	m.BeginRun(flight.New(), 0, testStages())
	m.Poll(time.Second)
	m.EndRun(2 * time.Second)
	if s := m.Snapshot(); s.State != "on_track" {
		t.Fatalf("nil snapshot %+v", s)
	}
	if txs := m.TransitionsSince(0); txs != nil {
		t.Fatalf("nil transitions %+v", txs)
	}
	var l *Ledger
	l.Record(Outcome{})
	l.Publish(telemetry.New())
	if s := l.Snapshot(); s.Runs != 0 {
		t.Fatalf("nil ledger %+v", s)
	}
}

// TestFoldNeverCallsTheRecorder guards the lock order Poll relies on:
// the fold runs as flight.(*Recorder).VisitSince's callback, with the
// recorder's lock held, so anything under applyLocked that called the
// recorder (say, to emit a breach event) would block on a lock its own
// goroutine holds, forever and without a message. One run sends every
// branch of the fold through a single Poll: all three terminal kinds,
// compute and every store op, a completed stage, a drifting term and a
// deadline passed mid-fold (at-risk and breach transitions), with a
// ledger and telemetry attached. The watchdog turns a re-entry into a
// failure that names the rule.
func TestFoldNeverCallsTheRecorder(t *testing.T) {
	rec := flight.New()
	m := New(Options{Predicted: testBreakdown(), Deadline: 30 * time.Second, Tenant: "acme", Job: "j",
		Ledger: NewLedger(), Telemetry: telemetry.New()})
	m.EnsurePlan(testBreakdown(), pricing.AWS())
	m.BeginRun(rec, 0, testStages())
	sec := func(s int) simtime.Time { return simtime.Time(time.Duration(s) * time.Second) }
	for inv, label := range []string{"map-0", "map-1", "coordinator", "red-0-0", "red-0-1"} {
		rec.Emit(flight.Event{Kind: flight.KindInvokeScheduled, Inv: int64(inv + 1), Label: label})
	}
	rec.Emit(flight.Event{Kind: flight.KindCompute, Inv: 1, Start: sec(1), Time: sec(16)})
	for _, k := range []flight.Kind{flight.KindStoreGet, flight.KindStorePut, flight.KindStoreHead,
		flight.KindStoreList, flight.KindStoreDelete, flight.KindStoreCopy} {
		rec.Emit(flight.Event{Kind: k, Inv: 1, Bucket: "b", Key: "k", Start: sec(16), Time: sec(17)})
	}
	for inv, k := range []flight.Kind{flight.KindInvokeDone, flight.KindInvokeDone, flight.KindInvokeTimeout,
		flight.KindInvokeError, flight.KindInvokeCanceled} {
		rec.Emit(flight.Event{Kind: k, Inv: int64(inv + 1), Start: sec(1), Time: sec(17 + 5*inv), MemoryMB: 1024})
	}
	done := make(chan Snapshot, 1)
	go func() {
		m.Poll(sec(40))
		m.EndRun(sec(40))
		done <- m.Snapshot()
	}()
	select {
	case snap := <-done:
		if m.lastSeq != rec.Seq() {
			t.Fatalf("folded up to seq %d of %d", m.lastSeq, rec.Seq())
		}
		if snap.DriftedTerms == 0 || snap.State != Breached.String() {
			t.Fatalf("the run was meant to drift and breach inside the fold: %+v", snap)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Poll did not return: the fold runs under the recorder's lock (flight.VisitSince), " +
			"so nothing under applyLocked may call the recorder")
	}
}

// TestDefaultThresholdsArePinned drives a default monitor to each side of
// its three fixed thresholds, so moving any of them fails: at_risk flips
// once the projected JCT exceeds 0.95 x the deadline, and a term drifts
// once its CUSUM, accumulating max(0, S + x - 0.25) per task, reaches 1.0.
func TestDefaultThresholdsArePinned(t *testing.T) {
	// Deadline 20s: the risk threshold is exactly 19s.
	for _, tc := range []struct {
		jct  time.Duration
		want string
	}{
		{19 * time.Second, "on_track"},
		{19*time.Second + 1, "at_risk"},
	} {
		bd := testBreakdown()
		bd.JCT = tc.jct
		m := New(Options{Predicted: bd, Deadline: 20 * time.Second})
		m.BeginRun(nil, 0, testStages())
		if got := m.Snapshot().State; got != tc.want {
			t.Errorf("planned JCT %v against a 20s deadline: %s, want %s", tc.jct, got, tc.want)
		}
	}

	// Map tasks whose compute overruns the predicted 5s by the given
	// amounts (x = overrun/5s); every other term stays under prediction.
	// One task alarms at x = k + h = 1.25; two tasks at x1 + x2 = 2k + h
	// = 1.5, which separates k from h.
	drifts := func(overruns ...time.Duration) int {
		rec := flight.New()
		m := New(Options{Predicted: testBreakdown(), Deadline: time.Hour})
		m.BeginRun(rec, 0, testStages())
		for i, over := range overruns {
			inv, label := int64(i+1), fmt.Sprintf("map-%d", i)
			end := simtime.Time(time.Second + 5*time.Second + over)
			rec.Emit(flight.Event{Kind: flight.KindInvokeScheduled, Inv: inv, Label: label})
			rec.Emit(flight.Event{Kind: flight.KindCompute, Inv: inv,
				Start: simtime.Time(time.Second), Time: end})
			rec.Emit(flight.Event{Kind: flight.KindInvokeDone, Inv: inv, Label: label,
				Start: simtime.Time(time.Second), Time: end, MemoryMB: 1024})
		}
		m.Poll(time.Minute)
		return m.Snapshot().DriftedTerms
	}
	for _, tc := range []struct {
		overruns []time.Duration
		want     int
	}{
		{[]time.Duration{6250 * time.Millisecond}, 1},
		{[]time.Duration{6250*time.Millisecond - 1}, 0},
		{[]time.Duration{3750 * time.Millisecond, 3750 * time.Millisecond}, 1},
		{[]time.Duration{3750*time.Millisecond - 1, 3750*time.Millisecond - 1}, 0},
	} {
		if got := drifts(tc.overruns...); got != tc.want {
			t.Errorf("compute overruns %v: %d drifted terms, want %d", tc.overruns, got, tc.want)
		}
	}
}
