package simtime

import "time"

// Proc is a simulated process. All Proc methods must be called from the
// process's own goroutine (i.e., from inside its body or functions it
// calls); a Proc handle held by another process is only valid as a target
// for Join.
type Proc struct {
	s      *Scheduler
	name   string
	resume chan struct{}
	abort  chan struct{}
	body   func(*Proc)

	finished    bool
	joinWaiters []*Proc
}

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.s.Now() }

// park gives up the baton and waits to be resumed: the process runs the
// event loop itself until the next process event, and returns at once if
// that event is its own resume. If the simulation is being torn down,
// park unwinds the goroutine.
func (p *Proc) park() {
	over, resumeSelf := p.s.dispatch(p)
	if resumeSelf {
		return
	}
	if over {
		p.s.done <- struct{}{}
	}
	select {
	case <-p.resume:
	case <-p.abort:
		panic(errAborted)
	}
}

// block parks the process with no scheduled resume; some other process or
// callback must call Scheduler.wake to continue it. The reason is reported
// in deadlock diagnostics.
func (p *Proc) block(reason string) {
	p.s.blocked[p] = reason
	p.park()
}

// Sleep advances the process by d of virtual time. Negative durations are
// treated as zero (the process still yields, preserving FIFO fairness among
// same-instant events).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.s.push(&Event{at: p.s.now + d, kind: evResume, proc: p})
	p.park()
}

// Spawn starts a child process at the current virtual time and returns its
// handle, which may be passed to Join.
func (p *Proc) Spawn(name string, body func(*Proc)) *Proc {
	return p.s.spawnAt(p.s.now, name, body)
}

// Join blocks until target finishes. Joining an already-finished process
// returns immediately.
func (p *Proc) Join(target *Proc) {
	if target.finished {
		return
	}
	target.joinWaiters = append(target.joinWaiters, p)
	p.block("join " + target.name)
}

// JoinAll joins every process in targets, in order.
func (p *Proc) JoinAll(targets []*Proc) {
	for _, t := range targets {
		p.Join(t)
	}
}

// Parallel runs n copies of body (invoked with indices 0..n-1) as child
// processes and waits for all of them. It is the fork-join idiom used for
// the mapper and reducer waves.
func (p *Proc) Parallel(n int, name string, body func(q *Proc, i int)) {
	procs := make([]*Proc, n)
	for i := 0; i < n; i++ {
		i := i
		procs[i] = p.Spawn(name, func(q *Proc) { body(q, i) })
	}
	p.JoinAll(procs)
}
