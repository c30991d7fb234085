package simtime

// Latch is a one-shot completion signal. Processes that Wait before Done
// block until Done is called; Waits after Done return immediately.
type Latch struct {
	s       *Scheduler
	done    bool
	waiters []*Proc
}

// NewLatch creates an unreleased latch.
func (s *Scheduler) NewLatch() *Latch { return &Latch{s: s} }

// Done releases the latch, waking all waiters at the current virtual time.
// It is idempotent and must be called from process or callback context.
func (l *Latch) Done() {
	if l.done {
		return
	}
	l.done = true
	for _, w := range l.waiters {
		l.s.wake(w)
	}
	l.waiters = nil
}

// IsDone reports whether the latch has been released.
func (l *Latch) IsDone() bool { return l.done }

// Wait blocks p until the latch is released.
func (l *Latch) Wait(p *Proc) {
	if l.done {
		return
	}
	l.waiters = append(l.waiters, p)
	p.block("latch")
}
