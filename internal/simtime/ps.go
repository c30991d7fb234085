package simtime

import "math"

// PSResource is a processor-sharing resource: a fixed service capacity
// (units per virtual second) divided equally among all in-flight jobs, the
// classic fluid model of a shared network link. It is an optional
// refinement over the paper's fixed per-lambda bandwidth: with PSResource a
// burst of 200 concurrent mappers genuinely contends for aggregate
// S3-facing bandwidth.
//
// Whenever a job arrives or departs, remaining work is advanced at the old
// rate and the next completion is rescheduled, so completion times are
// exact for piecewise-constant rates.
type PSResource struct {
	s          *Scheduler
	capacity   float64 // units per second
	jobs       map[*psJob]struct{}
	lastUpdate Time
	pending    *Event
}

type psJob struct {
	remaining float64
	latch     *Latch
}

// NewPSResource creates a processor-sharing resource with the given
// capacity in units per virtual second.
func (s *Scheduler) NewPSResource(capacity float64) *PSResource {
	if capacity <= 0 {
		panic("simtime: PSResource capacity must be positive")
	}
	return &PSResource{s: s, capacity: capacity, jobs: make(map[*psJob]struct{})}
}

// perJobRate is the current service rate each job receives.
func (r *PSResource) perJobRate() float64 {
	if len(r.jobs) == 0 {
		return 0
	}
	return r.capacity / float64(len(r.jobs))
}

// advance applies service accrued since lastUpdate to every job.
func (r *PSResource) advance() {
	now := r.s.Now()
	if now <= r.lastUpdate {
		r.lastUpdate = now
		return
	}
	rate := r.perJobRate()
	sec := (now - r.lastUpdate).Seconds()
	for j := range r.jobs {
		done := rate * sec
		if done > j.remaining {
			done = j.remaining
		}
		j.remaining -= done
	}
	r.lastUpdate = now
}

// reschedule cancels any pending completion event and schedules the next
// one for the job closest to finishing.
func (r *PSResource) reschedule() {
	if r.pending != nil {
		r.pending.Cancel()
		r.pending = nil
	}
	if len(r.jobs) == 0 {
		return
	}
	minRem := math.Inf(1)
	for j := range r.jobs {
		if j.remaining < minRem {
			minRem = j.remaining
		}
	}
	// Time for the smallest job to finish at the shared rate, rounded up a
	// nanosecond so float truncation can never fire the event before the
	// job has fully drained (which would loop at zero duration).
	sec := minRem * float64(len(r.jobs)) / r.capacity
	d := Time(sec*float64(Time(1e9))) + 1
	r.pending = r.s.After(d, r.onCompletion)
}

// onCompletion fires when at least one job has drained; it releases every
// finished job and schedules the next completion.
func (r *PSResource) onCompletion() {
	r.pending = nil
	r.advance()
	// Anything below a microunit counts as drained; with the rounded-up
	// completion event this only absorbs float noise, never real work.
	const eps = 1e-6
	for j := range r.jobs {
		if j.remaining <= eps {
			j.remaining = 0
			delete(r.jobs, j)
			j.latch.Done()
		}
	}
	r.reschedule()
}

// Use blocks p until amount units have been served to it under processor
// sharing. Zero or negative amounts return immediately.
func (r *PSResource) Use(p *Proc, amount float64) {
	if amount <= 0 {
		return
	}
	r.advance()
	j := &psJob{remaining: amount, latch: r.s.NewLatch()}
	r.jobs[j] = struct{}{}
	r.reschedule()
	j.latch.Wait(p)
}
