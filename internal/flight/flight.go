// Package flight implements the run flight recorder: an event-sourced
// capture of everything the simulated platform does while a job executes.
// Every invocation lifecycle transition (scheduled → queued → cold-start →
// running → done/timeout/retry/throttle), every object-store request, every
// declared compute interval and every barrier wait is recorded as a
// structured virtual-time event in a bounded in-memory ring.
//
// Recording is observe-only and deterministic: events carry virtual
// timestamps only (no wall clock), emission never advances the simulated
// clock or changes scheduling, and a nil *Recorder is a zero-cost no-op on
// every method — the same contract as the telemetry registry. Two identical
// runs therefore produce byte-identical event streams.
//
// On top of the raw stream the package provides deterministic JSONL and
// OTLP-flavored span-tree exports (export.go), a critical-path analyzer
// that attributes the job completion time to the paper's per-stage terms —
// startup, compute, S3 I/O, waiting; the Eq. 3–10 decomposition — and a
// model-accuracy auditor that diffs the planner's per-term predictions
// against the recorded actuals (analyze.go), the Fig. 7–8 comparison as a
// first-class report.
package flight

import (
	"sync"

	"astra/internal/simtime"
)

// Kind classifies an event.
type Kind string

// Event kinds. Invocation lifecycle transitions carry Inv; store requests,
// compute and waits are attributed to the invocation whose handler issued
// them (Inv 0 = the driver / root process).
const (
	// KindInvokeScheduled marks the dispatch of an invocation: Start is
	// when the caller began the invoke-API round trip, Time when the
	// invocation entered admission. By is the dispatching invocation.
	KindInvokeScheduled Kind = "invoke.scheduled"
	// KindInvokeQueued covers time spent waiting for a concurrency slot
	// (emitted only when the wait was non-zero).
	KindInvokeQueued Kind = "invoke.queued"
	// KindInvokeThrottled marks a 429 rejection by an injected throttle
	// window (the concurrency cap itself queues).
	KindInvokeThrottled Kind = "invoke.throttled"
	// KindInvokeRetry marks an automatic retry after a throttle.
	KindInvokeRetry Kind = "invoke.retry"
	// KindInvokeColdStart covers the cold-start initialization penalty
	// (zero-length when the platform's ColdStart is zero, but still
	// emitted: the container was cold).
	KindInvokeColdStart Kind = "invoke.cold_start"
	// KindInvokeRunning marks the handler start (instant).
	KindInvokeRunning Kind = "invoke.running"
	// KindInvokeDone / Timeout / Error close an invocation: Start is the
	// handler start, Time the (billing-relevant) end. Rec links to the
	// platform's completion-ordered lambda.Record.Seq.
	KindInvokeDone    Kind = "invoke.done"
	KindInvokeTimeout Kind = "invoke.timeout"
	KindInvokeError   Kind = "invoke.error"
	// KindInvokeCanceled closes an invocation killed by the driver — a
	// speculative loser: cancelled, but billed for its elapsed duration.
	KindInvokeCanceled Kind = "invoke.canceled"

	// Object-store requests (read/write plus the metadata ops).
	KindStoreGet    Kind = "store.get"
	KindStorePut    Kind = "store.put"
	KindStoreHead   Kind = "store.head"
	KindStoreList   Kind = "store.list"
	KindStoreDelete Kind = "store.delete"
	// KindStoreCopy is a server-side duplication (S3 CopyObject): Key is
	// the destination, Bytes the object size (no transfer through the
	// caller).
	KindStoreCopy Kind = "store.copy"

	// KindChaosFault marks an injected fault taking effect: Name carries
	// the effect (or the store op class for store faults), Rule the
	// matched chaos rule.
	KindChaosFault Kind = "chaos.fault"
	// KindSpecLaunch marks a speculative backup launch (Name = attempt
	// key); KindSpecWin marks the first-finisher decision (Name = winning
	// attempt key).
	KindSpecLaunch Kind = "spec.launch"
	KindSpecWin    Kind = "spec.win"

	// KindCompute covers a handler's declared CPU work (Ctx.Work).
	KindCompute Kind = "compute"
	// KindWait covers a handler or driver blocking on an async invocation.
	KindWait Kind = "wait"
	// KindPhase marks a driver-level phase window (run, map, coordinator,
	// step-NN); Name carries the phase name.
	KindPhase Kind = "phase"
)

// IsStore reports whether k is an object-store request.
func (k Kind) IsStore() bool {
	switch k {
	case KindStoreGet, KindStorePut, KindStoreHead, KindStoreList, KindStoreDelete, KindStoreCopy:
		return true
	}
	return false
}

// Event is one recorded observation. All timestamps are virtual. Fields
// are pointered by kind: lifecycle events carry the invocation identity,
// store events the request detail, phase markers a Name. The JSON field
// order is the struct order, so exports are deterministic.
type Event struct {
	// Seq is the recorder-assigned monotonic sequence number (1-based).
	Seq int64 `json:"seq"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Time is the event instant — for interval events, the interval end.
	Time simtime.Time `json:"t"`
	// Start is the interval start for interval events (zero otherwise).
	Start simtime.Time `json:"start,omitempty"`
	// Inv identifies the invocation the event belongs to (dispatch order,
	// 1-based; 0 = the driver / root process).
	Inv int64 `json:"inv,omitempty"`
	// By is the invocation that dispatched this one (scheduled events).
	By int64 `json:"by,omitempty"`
	// Rec is the completed invocation's lambda.Record.Seq (done-class
	// events), linking the event stream to Report.Records.
	Rec int64 `json:"rec,omitempty"`
	// Function and Label identify the lambda (lifecycle events).
	Function string `json:"fn,omitempty"`
	Label    string `json:"label,omitempty"`
	// MemoryMB is the lambda's memory tier (lifecycle events).
	MemoryMB int `json:"mem_mb,omitempty"`
	// Cold reports a cold container (running/done-class events).
	Cold bool `json:"cold,omitempty"`
	// Bucket, Key and Bytes describe a store request.
	Bucket string `json:"bucket,omitempty"`
	Key    string `json:"key,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	// Name is the phase name (phase events), the effect (chaos events) or
	// the attempt key (speculation events).
	Name string `json:"name,omitempty"`
	// Err carries the failure message (error/timeout/chaos events).
	Err string `json:"err,omitempty"`
	// Rule names the chaos rule behind an injected fault (chaos events).
	Rule string `json:"rule,omitempty"`
}

// DefaultCapacity is the default ring size: generous enough that the
// evaluation-scale jobs (a few thousand invocations, a handful of events
// each) record without drops.
const DefaultCapacity = 1 << 16

// Recorder is a bounded in-memory ring of events plus the scope table that
// attributes store/compute/wait events to the invocation issuing them. All
// methods are safe on a nil receiver (no-ops) and safe for concurrent use;
// under the simulator's cooperative scheduling at most one process runs at
// a time, but the race detector sees the handoffs, so access is locked.
type Recorder struct {
	mu   sync.Mutex
	cap  int
	buf  []Event
	head int // index of the oldest event once the ring wrapped
	// shared is set while EventsSince has handed out a view of buf: the
	// first wrap then moves the ring to a fresh array, so a view is never
	// written again.
	shared  bool
	seq     int64
	invSeq  int64
	dropped int64
	scopes  map[*simtime.Proc]int64
}

// New creates a recorder with the default ring capacity.
func New() *Recorder { return NewWithCapacity(DefaultCapacity) }

// NewWithCapacity creates a recorder holding at most n events; when full,
// the oldest events are overwritten (and counted by Dropped).
func NewWithCapacity(n int) *Recorder {
	if n <= 0 {
		n = DefaultCapacity
	}
	return &Recorder{cap: n, scopes: make(map[*simtime.Proc]int64)}
}

// Emit appends an event, assigning its sequence number. The event's Seq
// field is overwritten.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.emitLocked(ev)
	r.mu.Unlock()
}

func (r *Recorder) emitLocked(ev Event) {
	r.seq++
	ev.Seq = r.seq
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, ev)
		return
	}
	if r.shared {
		r.buf = append([]Event(nil), r.buf...)
		r.shared = false
	}
	r.buf[r.head] = ev
	r.head = (r.head + 1) % r.cap
	r.dropped++
}

// Reserve makes room for n more events in one allocation, so a run whose
// event count the caller can bound records without growing the ring by
// append. It never sizes the ring past its capacity; events beyond n
// still record, growing the ring as usual.
func (r *Recorder) Reserve(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	want := min(len(r.buf)+n, r.cap)
	if want <= cap(r.buf) {
		return
	}
	buf := make([]Event, len(r.buf), want)
	copy(buf, r.buf)
	r.buf, r.shared = buf, false
}

// NextInvocation allocates the next invocation identity (1-based,
// dispatch-ordered). Returns 0 on a nil recorder.
func (r *Recorder) NextInvocation() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.invSeq++
	v := r.invSeq
	r.mu.Unlock()
	return v
}

// SetScope attributes subsequent store/compute/wait events issued by proc
// to the invocation; ClearScope removes the attribution.
func (r *Recorder) SetScope(p *simtime.Proc, inv int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.scopes[p] = inv
	r.mu.Unlock()
}

// ClearScope ends a proc's invocation attribution.
func (r *Recorder) ClearScope(p *simtime.Proc) {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.scopes, p)
	r.mu.Unlock()
}

// InvocationOf reports the invocation currently attributed to proc
// (0 = none / the driver).
func (r *Recorder) InvocationOf(p *simtime.Proc) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	v := r.scopes[p]
	r.mu.Unlock()
	return v
}

// Op records one object-store request issued by proc over [start, end].
func (r *Recorder) Op(p *simtime.Proc, kind Kind, bucket, key string, n int64, start, end simtime.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.emitLocked(Event{
		Kind: kind, Time: end, Start: start,
		Inv: r.scopes[p], Bucket: bucket, Key: key, Bytes: n,
	})
	r.mu.Unlock()
}

// Interval records a compute or wait interval issued by proc.
func (r *Recorder) Interval(p *simtime.Proc, kind Kind, start, end simtime.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.emitLocked(Event{Kind: kind, Time: end, Start: start, Inv: r.scopes[p]})
	r.mu.Unlock()
}

// Seq reports the last assigned event sequence number (0 when empty or on
// a nil recorder). Use it with EventsSince to scope one run's events when
// a recorder is reused.
func (r *Recorder) Seq() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	v := r.seq
	r.mu.Unlock()
	return v
}

// Len reports the number of events currently retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	n := len(r.buf)
	r.mu.Unlock()
	return n
}

// Events returns the retained events in emission order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

// sinceLocked returns the retained events with Seq > after as the two
// runs of the ring that hold them, older run first. Retained events have
// consecutive sequence numbers ending at r.seq, so the cut is arithmetic.
func (r *Recorder) sinceLocked(after int64) (older, newer []Event) {
	older, newer = r.buf[r.head:], r.buf[:r.head]
	skip := after - (r.seq - int64(len(r.buf))) // retained events at or below after
	switch {
	case skip <= 0:
		return older, newer
	case skip >= int64(len(r.buf)):
		return nil, nil
	case skip >= int64(len(older)):
		return newer[skip-int64(len(older)):], nil
	}
	return older[skip:], newer
}

// EventsSince returns the retained events with Seq > after, in emission
// order. Until the ring first wraps the result is a view of the recording
// rather than a copy: the recorder never writes it again, and the caller
// must not write it either.
func (r *Recorder) EventsSince(after int64) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	older, newer := r.sinceLocked(after)
	if len(older)+len(newer) == 0 {
		return nil
	}
	if r.dropped == 0 {
		r.shared = true
		return older[:len(older):len(older)]
	}
	out := make([]Event, 0, len(older)+len(newer))
	return append(append(out, older...), newer...)
}

// VisitSince calls fn, in emission order, on every retained event with
// Seq > after, in place: nothing is copied. fn runs with the recorder
// locked, so it must not call the recorder, and the pointer is valid
// only for the call.
func (r *Recorder) VisitSince(after int64, fn func(*Event)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	older, newer := r.sinceLocked(after)
	for i := range older {
		fn(&older[i])
	}
	for i := range newer {
		fn(&newer[i])
	}
}
