package lambda

import (
	"errors"
	"fmt"
	"time"

	"astra/internal/simtime"
)

// Errors introduced by fault injection and speculative execution.
var (
	// ErrInjected wraps every fault the chaos injector fabricates; the
	// invocation's elapsed duration is billed, per AWS semantics for
	// crashed functions.
	ErrInjected = errors.New("lambda: injected fault")
	// ErrCanceled is returned by an invocation killed via Platform.Cancel
	// (a speculative loser). The elapsed duration is billed.
	ErrCanceled = errors.New("lambda: invocation canceled")
)

// InvokeRef is the stable identity of one invocation attempt, handed to
// the injector for matching and deterministic probability draws. Attempt
// counts prior dispatches of the same (function, label) pair: 0 is the
// first dispatch of a task, 1 its first retry or speculative backup, and
// so on. Per-identity dispatch order is deterministic even when global
// interleaving is not, which is what makes attempt numbers a sound PRNG
// key.
type InvokeRef struct {
	Function string
	Label    string
	Attempt  int
}

// InvokeFault is the set of effects an injector imposes on one invocation
// attempt. Effects compose: a straggling invocation can also be forced
// cold.
type InvokeFault struct {
	// Rule names the matched rule, for events and error messages.
	Rule string
	// FailBeforeStart rejects the invocation at admission: no handler
	// runs, no duration is billed, only the invocation fee.
	FailBeforeStart bool
	// FailMidFlight kills the handler at its FailAtCall-th platform API
	// call (1-based); if the handler makes fewer calls, it is failed on
	// return. Elapsed duration is billed either way.
	FailMidFlight bool
	FailAtCall    int
	// ForceCold bypasses the warm-container pool for this attempt.
	ForceCold bool
	// Straggle slows the invocation's compute and store transfers by this
	// factor (> 1; 0 or 1 means no straggle).
	Straggle float64
	// Err customizes the injected error message.
	Err string
}

// errFor builds the error an injected failure surfaces.
func (flt InvokeFault) errFor(effect string) error {
	msg := flt.Err
	if msg == "" {
		msg = effect
	}
	if flt.Rule != "" {
		return fmt.Errorf("%w: %s (rule %s)", ErrInjected, msg, flt.Rule)
	}
	return fmt.Errorf("%w: %s", ErrInjected, msg)
}

// Injector decides fault injection for the platform. Implementations must
// be deterministic functions of (identity, virtual time) — never of call
// interleaving — so seeded runs reproduce exactly. internal/chaos provides
// the standard implementation.
type Injector interface {
	// InvokeFault reports the effects to impose on an invocation attempt,
	// and whether any apply.
	InvokeFault(ref InvokeRef, now simtime.Time) (InvokeFault, bool)
	// ThrottleInjected reports whether the attempt should be rejected
	// 429-style at the current instant (throttle windows). The platform
	// re-asks on each of its retries, so a window naturally clears.
	ThrottleInjected(ref InvokeRef, now simtime.Time) bool
}

// SetInjector attaches a fault injector consulted on every invocation
// attempt (nil detaches). An injector that injects nothing leaves the run
// bit-identical to one with no injector attached.
func (pl *Platform) SetInjector(inj Injector) { pl.inj = inj }

// ChaosCounters snapshots the platform-side injected-fault counts.
type ChaosCounters struct {
	// Faults counts invocation attempts that received at least one effect.
	Faults int
	// Per-effect counts. ThrottleRejects counts injected 429s, the
	// platform's only throttles.
	FailedBeforeStart int
	FailedMidFlight   int
	Straggled         int
	ForcedColdStarts  int
	ThrottleRejects   int
}

// Sub returns the counter deltas c - o, for scoping one run.
func (c ChaosCounters) Sub(o ChaosCounters) ChaosCounters {
	return ChaosCounters{
		Faults:            c.Faults - o.Faults,
		FailedBeforeStart: c.FailedBeforeStart - o.FailedBeforeStart,
		FailedMidFlight:   c.FailedMidFlight - o.FailedMidFlight,
		Straggled:         c.Straggled - o.Straggled,
		ForcedColdStarts:  c.ForcedColdStarts - o.ForcedColdStarts,
		ThrottleRejects:   c.ThrottleRejects - o.ThrottleRejects,
	}
}

// ChaosCounters reports cumulative injected-fault counts.
func (pl *Platform) ChaosCounters() ChaosCounters { return pl.chaos }

// cancelCell carries a cooperative cancellation request from the driver to
// the handler. The handler observes it at its next platform API call —
// like a real sandbox, a cancelled function dies the next time it would
// make progress, and its elapsed duration stays billed.
type cancelCell struct{ requested bool }

// Cancel requests cancellation of an in-flight asynchronous invocation.
// Completed invocations are unaffected; the cancelled handler is killed at
// its next platform API call with ErrCanceled and billed for its elapsed
// duration (the speculative-execution loser semantics: cancelled but
// billed).
func (pl *Platform) Cancel(iv *Invocation) {
	if iv == nil || iv.cancel == nil || iv.done.IsDone() || iv.cancel.requested {
		return
	}
	iv.cancel.requested = true
}

// WaitAny blocks until one of invs completes or timeout elapses, returning
// the lowest index of a completed invocation, or -1 on timeout. A negative
// timeout waits indefinitely. This is the wait-any primitive speculative
// execution races attempts with.
func (pl *Platform) WaitAny(p *simtime.Proc, invs []*Invocation, timeout time.Duration) int {
	for i, iv := range invs {
		if iv.done.IsDone() {
			return i
		}
	}
	if len(invs) == 0 && timeout < 0 {
		return -1
	}
	// One watcher proc per invocation funnels completions into a fresh
	// combined latch (Done is idempotent); a timer event releases it on
	// timeout. The parent parks exactly once, so the scheduler never
	// double-wakes it. Watchers outlive this call harmlessly: they wake
	// when their invocation completes, find the latch released, and exit.
	combined := pl.sched.NewLatch()
	for _, iv := range invs {
		iv := iv
		p.Spawn("waitany", func(q *simtime.Proc) {
			iv.done.Wait(q)
			combined.Done()
		})
	}
	var ev *simtime.Event
	if timeout >= 0 {
		ev = pl.sched.After(timeout, combined.Done)
	}
	combined.Wait(p)
	if ev != nil {
		ev.Cancel()
	}
	for i, iv := range invs {
		if iv.done.IsDone() {
			return i
		}
	}
	return -1
}
