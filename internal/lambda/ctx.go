package lambda

import (
	"time"

	"astra/internal/flight"
	"astra/internal/objectstore"
	"astra/internal/simtime"
)

// Ctx is the execution context handed to a Handler. All platform
// interaction goes through it so the timeout can be enforced at every
// blocking call, the way the real sandbox kills an over-deadline function
// the next time it would make progress.
type Ctx struct {
	platform *Platform
	fn       *Function
	proc     *simtime.Proc
	payload  []byte
	deadline simtime.Time

	// Fault-injection state (set by the platform from the injector's
	// InvokeFault; all zero on a clean invocation).
	straggle   float64     // >1: compute and transfers run this much slower
	failAtCall int         // kill the handler at its Nth platform API call
	injectErr  error       // the error the kill surfaces
	injectRule string      // rule name, for the chaos event
	cancel     *cancelCell // cooperative cancellation request
	calls      int         // platform API calls made so far
}

// apiCall opens one platform API call: it checks the deadline, counts the
// call and applies cooperative kills. A pending cancellation or the
// injected mid-flight fault fires here, the way a real sandbox dies the
// next time it would make progress.
func (c *Ctx) apiCall() {
	c.checkDeadline()
	c.calls++
	if c.failAtCall > 0 && c.calls >= c.failAtCall {
		c.failAtCall = 0 // fire once
		pl := c.platform
		pl.chaos.FailedMidFlight++
		if rec := pl.rec; rec != nil {
			rec.Emit(flight.Event{Kind: flight.KindChaosFault, Time: c.proc.Now(),
				Inv: rec.InvocationOf(c.proc), Function: c.fn.Name,
				Name: "fail_mid_flight", Rule: c.injectRule})
		}
		panic(c.injectErr)
	}
}

// stretch applies the straggle factor to the store operation that ran over
// [t0, now]: the invocation's I/O takes Straggle times as long.
func (c *Ctx) stretch(t0 simtime.Time) {
	if c.straggle > 1 {
		if el := c.proc.Now() - t0; el > 0 {
			c.proc.Sleep(time.Duration(float64(el) * (c.straggle - 1)))
		}
	}
}

// Payload returns the invocation payload.
func (c *Ctx) Payload() []byte { return c.payload }

// Now reports the current virtual time.
func (c *Ctx) Now() simtime.Time { return c.proc.Now() }

// checkDeadline panics with ErrCanceled on a pending cancellation, or
// ErrTimeout once the deadline has passed. The panic unwinds the handler;
// Platform.runHandler converts it to an error.
func (c *Ctx) checkDeadline() {
	if c.cancel != nil && c.cancel.requested {
		panic(ErrCanceled)
	}
	if c.proc.Now() >= c.deadline {
		panic(ErrTimeout)
	}
}

// Work charges refSeconds of compute measured at the platform's reference
// memory tier, scaled by the function's speed factor. This is how handlers
// declare CPU work: d * u_i in the paper's Eq. (3), with u_i realized by
// the speed model.
func (c *Ctx) Work(refSeconds float64) {
	c.apiCall()
	if refSeconds <= 0 {
		return
	}
	scaled := refSeconds * c.platform.cfg.Speed.Factor(c.fn.MemoryMB)
	if c.straggle > 1 {
		scaled *= c.straggle
	}
	t0 := c.proc.Now()
	c.proc.Sleep(time.Duration(scaled * float64(time.Second)))
	if rec := c.platform.rec; rec != nil {
		rec.Interval(c.proc, flight.KindCompute, t0, c.proc.Now())
	}
	c.checkDeadline()
}

// WorkBytes charges compute for processing n bytes at refSecPerMB
// reference-seconds per MB.
func (c *Ctx) WorkBytes(n int64, refSecPerMB float64) {
	c.Work(float64(n) / (1 << 20) * refSecPerMB)
}

// store runs one store request as a platform API call: the call opens
// (deadline, count, kills), the request runs on the handler's process, its
// elapsed time is stretched by any straggle, and the deadline is checked
// again once it returns.
func (c *Ctx) store(req func(p *simtime.Proc, s *objectstore.Store) error) error {
	c.apiCall()
	t0 := c.proc.Now()
	err := req(c.proc, c.platform.store)
	c.stretch(t0)
	c.checkDeadline()
	return err
}

// Get reads an object through the store, charging transfer time.
func (c *Ctx) Get(bucket, key string) (obj *objectstore.Object, err error) {
	err = c.store(func(p *simtime.Proc, s *objectstore.Store) error {
		obj, err = s.Get(p, bucket, key)
		return err
	})
	return obj, err
}

// Put writes concrete bytes through the store.
func (c *Ctx) Put(bucket, key string, data []byte) error {
	return c.store(func(p *simtime.Proc, s *objectstore.Store) error {
		return s.Put(p, bucket, key, data)
	})
}

// PutProfiled writes a size-only object through the store.
func (c *Ctx) PutProfiled(bucket, key string, size int64) error {
	return c.store(func(p *simtime.Proc, s *objectstore.Store) error {
		return s.PutProfiled(p, bucket, key, size)
	})
}

// Copy duplicates an object server-side through the store (no transfer
// through the function; a PUT-class request). Speculative execution uses
// it as the commit step publishing a winner's attempt-suffixed output
// under its final key.
func (c *Ctx) Copy(bucket, src, dst string) error {
	return c.store(func(p *simtime.Proc, s *objectstore.Store) error {
		return s.Copy(p, bucket, src, dst)
	})
}

// InvokeAsync lets a handler launch another function (the coordinator
// lambda invoking reducers). The child invocation runs concurrently; the
// caller's clock does not advance.
func (c *Ctx) InvokeAsync(name, label string, payload []byte) *Invocation {
	c.apiCall()
	return c.platform.InvokeAsync(c.proc, name, label, payload)
}

// Wait blocks the handler until an async invocation completes.
func (c *Ctx) Wait(iv *Invocation) ([]byte, error) {
	c.apiCall()
	t0 := c.proc.Now()
	resp, err := iv.Wait(c.proc)
	if rec := c.platform.rec; rec != nil {
		if now := c.proc.Now(); now > t0 {
			rec.Interval(c.proc, flight.KindWait, t0, now)
		}
	}
	c.checkDeadline()
	return resp, err
}

// WaitAny blocks the handler until one of the invocations completes or the
// timeout elapses, returning the lowest completed index or -1 on timeout
// (negative timeout = wait indefinitely). This is the racing primitive for
// speculative backups launched by a coordinator.
func (c *Ctx) WaitAny(invs []*Invocation, timeout time.Duration) int {
	c.apiCall()
	t0 := c.proc.Now()
	idx := c.platform.WaitAny(c.proc, invs, timeout)
	if rec := c.platform.rec; rec != nil {
		if now := c.proc.Now(); now > t0 {
			rec.Interval(c.proc, flight.KindWait, t0, now)
		}
	}
	c.checkDeadline()
	return idx
}

// Cancel requests cancellation of an in-flight invocation this handler
// launched (first-finisher-wins losers). The loser is killed at its next
// platform API call and stays billed.
func (c *Ctx) Cancel(iv *Invocation) {
	c.platform.Cancel(iv)
}
