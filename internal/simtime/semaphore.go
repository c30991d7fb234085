package simtime

import "fmt"

// Semaphore is a counting semaphore with strict FIFO admission: a large
// request at the head of the queue blocks smaller requests behind it, so
// admission order is deterministic and starvation-free. It models the
// Lambda platform's account-level concurrency limit.
type Semaphore struct {
	s     *Scheduler
	cap   int
	avail int
	queue []semWait

	// peakInUse tracks the high-water mark of acquired units since the
	// last RestartPeak, handy for asserting a run never exceeded the
	// concurrency the model assumed.
	peakInUse int
}

type semWait struct {
	p *Proc
	n int
}

// NewSemaphore creates a semaphore with the given capacity.
func (s *Scheduler) NewSemaphore(capacity int) *Semaphore {
	if capacity <= 0 {
		panic("simtime: semaphore capacity must be positive")
	}
	return &Semaphore{s: s, cap: capacity, avail: capacity}
}

// InUse reports the number of units currently held.
func (sem *Semaphore) InUse() int { return sem.cap - sem.avail }

// PeakInUse reports the maximum number of units held simultaneously
// since the semaphore was made or its peak last restarted.
func (sem *Semaphore) PeakInUse() int { return sem.peakInUse }

// RestartPeak starts a new high-water mark at the units held now.
func (sem *Semaphore) RestartPeak() { sem.peakInUse = sem.InUse() }

func (sem *Semaphore) noteAcquired() {
	if in := sem.InUse(); in > sem.peakInUse {
		sem.peakInUse = in
	}
}

// Acquire takes n units, blocking p in FIFO order until they are
// available. Requesting more units than the capacity panics.
func (sem *Semaphore) Acquire(p *Proc, n int) {
	if n <= 0 {
		panic("simtime: Acquire of non-positive unit count")
	}
	if n > sem.cap {
		panic(fmt.Sprintf("simtime: Acquire(%d) exceeds capacity %d", n, sem.cap))
	}
	if len(sem.queue) == 0 && sem.avail >= n {
		sem.avail -= n
		sem.noteAcquired()
		return
	}
	sem.queue = append(sem.queue, semWait{p: p, n: n})
	p.block("semaphore")
}

// Release returns n units and admits queued waiters that now fit, in FIFO
// order. Releasing more than is held panics.
func (sem *Semaphore) Release(n int) {
	if n <= 0 {
		panic("simtime: Release of non-positive unit count")
	}
	sem.avail += n
	if sem.avail > sem.cap {
		panic(fmt.Sprintf("simtime: Release(%d) overflows capacity %d", n, sem.cap))
	}
	for len(sem.queue) > 0 && sem.avail >= sem.queue[0].n {
		w := sem.queue[0]
		sem.queue = sem.queue[1:]
		sem.avail -= w.n
		sem.noteAcquired()
		sem.s.wake(w.p)
	}
}
