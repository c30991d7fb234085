// Per-tenant admission control for the planning service: a token-bucket
// rate limit in front of a max-in-flight cap with a bounded FIFO accept
// queue. Every decision is a pure function of (quota, tenant state,
// clock), so a fixed virtual clock replays a byte-identical accept/429
// sequence — the property the determinism tests pin.
package server

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"astra/internal/telemetry"
)

// TenantQuota is the admission policy applied to each tenant
// independently (one bucket, one in-flight cap, one queue per tenant).
type TenantQuota struct {
	// Rate is the sustained request rate in tokens/second. <= 0 means
	// unlimited: the bucket never rejects.
	Rate float64
	// Burst is the bucket depth (< 1 is raised to 1 so a full bucket
	// always admits at least one request).
	Burst float64
	// MaxInFlight caps concurrently-served requests (<= 0: 1).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot; a full
	// queue rejects deterministically rather than growing memory.
	MaxQueue int
}

func (q TenantQuota) normalized() TenantQuota {
	if q.Burst < 1 {
		q.Burst = 1
	}
	if q.MaxInFlight <= 0 {
		q.MaxInFlight = 1
	}
	if q.MaxQueue < 0 {
		q.MaxQueue = 0
	}
	return q
}

// queueFullRetry is the deterministic Retry-After for a full accept
// queue: the slot-drain horizon is unknowable, so a fixed hint beats a
// guess that varies with load.
const queueFullRetry = 100 * time.Millisecond

// ErrDraining is returned by Admit when the server is shutting down.
var ErrDraining = errors.New("server: draining")

// Rejection describes a deterministic 429.
type Rejection struct {
	// Reason is "rate" (token bucket empty) or "queue_full".
	Reason string
	// RetryAfter is the precise wait until the bucket refills one token
	// (rate rejections) or the fixed queue-full hint.
	RetryAfter time.Duration
}

// Ticket is one admitted request; Release returns the in-flight slot
// (handing it to the oldest queued waiter, if any). QueueWait is how
// long the request sat in the accept queue before being served.
type Ticket struct {
	QueueWait time.Duration
	release   func()
}

// Release returns the slot. Safe to call exactly once.
func (t *Ticket) Release() { t.release() }

type waiter struct {
	ch      chan struct{}
	granted bool
}

type tenantState struct {
	tokens   float64
	last     time.Time
	inflight int
	queue    []*waiter
}

// Admission is the per-tenant admission controller. Safe for concurrent
// use; the zero value is not usable — construct with NewAdmission.
type Admission struct {
	mu      sync.Mutex
	quota   TenantQuota
	now     func() time.Time
	closing <-chan struct{}
	tenants map[string]*tenantState

	queueDepth *telemetry.Gauge
	inFlight   *telemetry.Gauge
}

// NewAdmission builds a controller applying quota to every tenant.
// closing, when non-nil, aborts queued waiters on shutdown. now
// defaults to time.Now; tests inject a virtual clock.
func NewAdmission(quota TenantQuota, reg *telemetry.Registry, closing <-chan struct{}, now func() time.Time) *Admission {
	if now == nil {
		now = time.Now
	}
	if reg == nil {
		reg = telemetry.New()
	}
	return &Admission{
		quota:      quota.normalized(),
		now:        now,
		closing:    closing,
		tenants:    make(map[string]*tenantState),
		queueDepth: reg.Gauge(telemetry.MServerQueueDepth),
		inFlight:   reg.Gauge(telemetry.MServerInFlight),
	}
}

// tenant returns (creating if needed) a tenant's state. Caller holds mu.
func (a *Admission) tenant(id string) *tenantState {
	ts := a.tenants[id]
	if ts == nil {
		ts = &tenantState{tokens: a.quota.Burst, last: a.now()}
		a.tenants[id] = ts
	}
	return ts
}

// refill advances the bucket to the current instant. Caller holds mu.
func (a *Admission) refill(ts *tenantState) {
	now := a.now()
	if elapsed := now.Sub(ts.last); elapsed > 0 && a.quota.Rate > 0 {
		ts.tokens = math.Min(a.quota.Burst, ts.tokens+elapsed.Seconds()*a.quota.Rate)
	}
	ts.last = now
}

// Admit gates one request for tenant id. Exactly one of the returns is
// non-nil/nil-error: a Ticket (whose Release must be called when the
// request finishes), a Rejection (deterministic 429), or an error
// (context cancelled, or ErrDraining on shutdown).
func (a *Admission) Admit(ctx context.Context, id string) (*Ticket, *Rejection, error) {
	a.mu.Lock()
	ts := a.tenant(id)
	a.refill(ts)
	if a.quota.Rate > 0 && ts.tokens < 1 {
		wait := time.Duration(math.Ceil((1 - ts.tokens) / a.quota.Rate * float64(time.Second)))
		a.mu.Unlock()
		return nil, &Rejection{Reason: "rate", RetryAfter: wait}, nil
	}
	if a.quota.Rate > 0 {
		ts.tokens--
	}
	if ts.inflight < a.quota.MaxInFlight {
		ts.inflight++
		a.inFlight.Add(1)
		a.mu.Unlock()
		return &Ticket{release: a.releaseFn(ts)}, nil, nil
	}
	if len(ts.queue) >= a.quota.MaxQueue {
		a.mu.Unlock()
		return nil, &Rejection{Reason: "queue_full", RetryAfter: queueFullRetry}, nil
	}
	w := &waiter{ch: make(chan struct{})}
	ts.queue = append(ts.queue, w)
	a.queueDepth.Add(1)
	queuedAt := a.now()
	a.mu.Unlock()

	select {
	case <-w.ch:
		a.queueDepth.Add(-1)
		return &Ticket{QueueWait: a.now().Sub(queuedAt), release: a.releaseFn(ts)}, nil, nil
	case <-ctx.Done():
		a.abandon(ts, w)
		return nil, nil, ctx.Err()
	case <-a.closingChan():
		a.abandon(ts, w)
		return nil, nil, ErrDraining
	}
}

// closingChan never returns nil (a nil channel would block forever,
// which is the desired behavior, but selecting on a method result keeps
// the intent explicit).
func (a *Admission) closingChan() <-chan struct{} {
	return a.closing
}

// abandon removes a waiter that stopped waiting. If the grant raced the
// abandonment — Release handed it the slot just as its context fired —
// the slot is passed straight back so it is never leaked.
func (a *Admission) abandon(ts *tenantState, w *waiter) {
	a.mu.Lock()
	if w.granted {
		// The slot is ours; hand it on (or free it) under the same lock.
		a.releaseLocked(ts)
		a.mu.Unlock()
		a.queueDepth.Add(-1)
		return
	}
	for i, q := range ts.queue {
		if q == w {
			ts.queue = append(ts.queue[:i], ts.queue[i+1:]...)
			break
		}
	}
	a.mu.Unlock()
	a.queueDepth.Add(-1)
}

// releaseFn returns the Ticket's release closure for a tenant slot.
func (a *Admission) releaseFn(ts *tenantState) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.releaseLocked(ts)
			a.mu.Unlock()
		})
	}
}

// releaseLocked frees one in-flight slot or hands it to the oldest
// queued waiter. Caller holds mu.
func (a *Admission) releaseLocked(ts *tenantState) {
	if len(ts.queue) > 0 {
		w := ts.queue[0]
		ts.queue = ts.queue[1:]
		w.granted = true
		close(w.ch)
		return // slot transfers; inflight count unchanged
	}
	ts.inflight--
	a.inFlight.Add(-1)
}
