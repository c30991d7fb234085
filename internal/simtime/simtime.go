// Package simtime implements a deterministic discrete-event simulation
// scheduler with cooperative process semantics.
//
// The scheduler owns a virtual clock. User code runs inside processes
// (Proc), which advance the clock only through blocking operations such as
// Sleep, Latch.Wait or Semaphore.Acquire. At most one process executes at
// any instant. Control is a baton: whichever goroutine holds it pops the
// next event, runs non-blocking callbacks inline, and passes the baton to
// the next process over that process's unbuffered resume channel (or
// starts its goroutine). A process that parks runs the loop itself, so a
// process whose own resume is next just keeps running, with no handoff.
// No other locking is required, and every run with the same inputs
// produces the same event order and the same final clock reading.
//
// This package is the substrate for the simulated AWS Lambda platform and
// object store: a 100 GB analytics job "runs" in milliseconds of wall time
// while the virtual timeline is exactly the one the cost/performance models
// describe.
package simtime

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sort"
	"time"
)

// Time is a point in virtual time, expressed as the offset from the start
// of the simulation.
type Time = time.Duration

// ErrDeadlock is reported (wrapped) by Run when no scheduled events remain
// but one or more processes are still blocked on a Latch, Semaphore or
// other waitable.
var ErrDeadlock = errors.New("simtime: deadlock")

// errAborted is the sentinel panic value used to unwind process goroutines
// when the scheduler tears the simulation down (deadlock or user panic).
var errAborted = errors.New("simtime: aborted")

type eventKind uint8

const (
	evStart  eventKind = iota // launch a new process goroutine
	evResume                  // resume a parked process
	evCall                    // run a non-blocking callback inline
)

// Event is a handle to a scheduled occurrence. It can be canceled as long
// as it has not fired.
type Event struct {
	at       Time
	seq      uint64
	kind     eventKind
	proc     *Proc
	fn       func()
	canceled bool
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op.
func (e *Event) Cancel() { e.canceled = true }

// When reports the virtual time the event is scheduled for.
func (e *Event) When() Time { return e.at }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Scheduler is a discrete-event simulation kernel. The zero value is not
// usable; construct with NewScheduler.
type Scheduler struct {
	now   Time
	seq   uint64
	queue eventHeap
	// done is sent once, by the baton holder that ends the run (queue
	// drained, s.err set or ctx fired), to the goroutine in RunContext.
	done chan struct{}
	// parked acks teardown: each aborted process sends once as it unwinds.
	parked chan struct{}

	ctx        context.Context
	dispatched int // events popped, for the ctx check cadence
	handoffs   int // baton passes to another goroutine, for tests

	live    map[*Proc]struct{} // started, not yet finished
	blocked map[*Proc]string   // parked with no scheduled resume -> reason

	err      error
	finished bool
}

// NewScheduler returns a scheduler with the clock at zero.
func NewScheduler() *Scheduler {
	return &Scheduler{
		done:    make(chan struct{}),
		parked:  make(chan struct{}),
		live:    make(map[*Proc]struct{}),
		blocked: make(map[*Proc]string),
	}
}

// Now reports the current virtual time. It may be called from process
// context or from evCall callbacks.
func (s *Scheduler) Now() Time { return s.now }

func (s *Scheduler) push(e *Event) *Event {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.queue, e)
	return e
}

// At schedules fn to run inline at virtual time t (which must not be in the
// past). fn must not block; it runs on whichever goroutine holds the event
// loop when t comes due (a parking or finishing process, or RunContext's).
func (s *Scheduler) At(t Time, fn func()) *Event {
	if t < s.now {
		t = s.now
	}
	return s.push(&Event{at: t, kind: evCall, fn: fn})
}

// After schedules fn to run inline d from now. fn must not block.
func (s *Scheduler) After(d time.Duration, fn func()) *Event {
	return s.At(s.now+d, fn)
}

func (s *Scheduler) scheduleResume(p *Proc) {
	s.push(&Event{at: s.now, kind: evResume, proc: p})
}

// wake moves a blocked process back onto the event queue at the current
// virtual time. It must be called from process or callback context.
func (s *Scheduler) wake(p *Proc) {
	delete(s.blocked, p)
	s.scheduleResume(p)
}

// Spawn creates a process that will begin executing body at virtual time t.
func (s *Scheduler) spawnAt(t Time, name string, body func(*Proc)) *Proc {
	p := &Proc{
		s:      s,
		name:   name,
		resume: make(chan struct{}),
		abort:  make(chan struct{}),
		body:   body,
	}
	s.push(&Event{at: t, kind: evStart, proc: p})
	return p
}

// Run starts root as the first process at time zero and drives the event
// loop until no events remain. It returns a non-nil error if any process
// panicked or if the simulation deadlocked (processes blocked forever).
// Run must be called at most once per Scheduler.
func (s *Scheduler) Run(root func(*Proc)) error {
	return s.RunContext(context.Background(), root)
}

// ctxCheckEvents is how many events the loop pops between context checks:
// a large simulation dispatches millions of events per wall-clock second,
// so cancellation is still observed within microseconds.
const ctxCheckEvents = 256

// RunContext is Run with cancellation: the event loop checks ctx between
// events and, when it fires, tears the simulation down (unwinding every
// live process goroutine) and returns ctx.Err(). Virtual time is
// unrelated to wall time, so a ctx deadline bounds the wall-clock cost of
// the simulation, not the simulated clock.
//
// The calling goroutine only starts the loop and waits for its end: the
// loop runs on whichever goroutine holds the baton (see dispatch), so
// evCall callbacks run on a parking or finishing process's goroutine.
func (s *Scheduler) RunContext(ctx context.Context, root func(*Proc)) error {
	if s.finished {
		return errors.New("simtime: scheduler already ran")
	}
	if err := ctx.Err(); err != nil {
		s.finished = true
		return err
	}
	s.ctx = ctx
	s.spawnAt(0, "root", root)
	if over, _ := s.dispatch(nil); !over {
		<-s.done
	}
	s.finished = true
	if s.err != nil {
		s.abortAll()
		return s.err
	}
	if len(s.blocked) > 0 {
		err := fmt.Errorf("%w: %d process(es) blocked: %s",
			ErrDeadlock, len(s.blocked), s.blockedSummary())
		s.abortAll()
		return err
	}
	return nil
}

// dispatch runs the event loop on the calling goroutine, which holds the
// baton, until the baton leaves it. self is the process parking on this
// goroutine (nil for RunContext's goroutine and for a finishing process).
// It returns resumeSelf when the next process event is self's own resume:
// self keeps running and nothing is handed off. It returns over when the
// run has ended (queue drained, s.err set or ctx fired): the caller must
// then send once on s.done. Otherwise it has passed the baton to another
// process and touched no scheduler state since.
func (s *Scheduler) dispatch(self *Proc) (over, resumeSelf bool) {
	for s.err == nil && s.queue.Len() > 0 {
		if s.dispatched++; s.dispatched%ctxCheckEvents == 0 {
			if err := s.ctx.Err(); err != nil {
				s.err = err
				return true, false
			}
		}
		e := heap.Pop(&s.queue).(*Event)
		if e.canceled {
			continue
		}
		s.now = e.at
		switch e.kind {
		case evCall:
			e.fn()
			continue
		case evStart:
			s.live[e.proc] = struct{}{}
			s.handoffs++
			go s.runProc(e.proc)
		case evResume:
			if e.proc == self {
				return false, true
			}
			s.handoffs++
			e.proc.resume <- struct{}{}
		}
		return false, false
	}
	return true, false
}

func (s *Scheduler) blockedSummary() string {
	names := make([]string, 0, len(s.blocked))
	for p, reason := range s.blocked {
		names = append(names, p.name+" ("+reason+")")
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

// abortAll unwinds every live process goroutine. Called from RunContext's
// goroutine once the run is over, so no process holds the baton; after it
// returns, no process goroutines remain.
func (s *Scheduler) abortAll() {
	n := 0
	for p := range s.live {
		close(p.abort)
		n++
	}
	for i := 0; i < n; i++ {
		<-s.parked
	}
	s.live = map[*Proc]struct{}{}
	s.blocked = map[*Proc]string{}
}

// runProc executes a process body in its own goroutine. On completion or
// panic the finishing process still holds the baton, so it runs the event
// loop on until the baton leaves it, before the goroutine exits.
func (s *Scheduler) runProc(p *Proc) {
	defer func() {
		r := recover()
		if err, ok := r.(error); ok && errors.Is(err, errAborted) {
			s.parked <- struct{}{}
			return
		}
		if r != nil && s.err == nil {
			s.err = fmt.Errorf("simtime: process %q panicked: %v", p.name, r)
		}
		p.finished = true
		delete(s.live, p)
		for _, w := range p.joinWaiters {
			s.wake(w)
		}
		p.joinWaiters = nil
		s.handOn()
	}()
	p.body(p)
}

// handOn runs the event loop for a finished process until the baton
// leaves its goroutine. A panicking callback ends the run with an error:
// no process frame is left to unwind it into.
func (s *Scheduler) handOn() {
	defer func() {
		if r := recover(); r != nil {
			if s.err == nil {
				s.err = fmt.Errorf("simtime: callback panicked: %v", r)
			}
			s.done <- struct{}{}
		}
	}()
	if over, _ := s.dispatch(nil); over {
		s.done <- struct{}{}
	}
}

// Elapsed runs a single-process simulation and reports the virtual time
// consumed by body. It is a convenience for tests and simple metering.
func Elapsed(body func(*Proc)) (time.Duration, error) {
	s := NewScheduler()
	err := s.Run(body)
	return s.now, err
}
