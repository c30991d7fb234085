package simtime

import (
	"strings"
	"testing"
	"time"
)

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	// 10 workers, each holding a unit for 1s, capacity 2 -> 5 waves -> 5s.
	elapsed, err := Elapsed(func(p *Proc) {
		sem := p.s.NewSemaphore(2)
		p.Parallel(10, "w", func(q *Proc, i int) {
			sem.Acquire(q, 1)
			q.Sleep(time.Second)
			sem.Release(1)
		})
		if sem.PeakInUse() != 2 {
			t.Errorf("peak = %d, want 2", sem.PeakInUse())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed != 5*time.Second {
		t.Fatalf("elapsed = %v, want 5s", elapsed)
	}
}

func TestSemaphoreFIFONoBypass(t *testing.T) {
	// A large request at the head must not be bypassed by later small ones.
	var order []string
	_, err := Elapsed(func(p *Proc) {
		sem := p.s.NewSemaphore(4)
		sem.Acquire(p, 3) // 1 left
		big := p.Spawn("big", func(q *Proc) {
			sem.Acquire(q, 2)
			order = append(order, "big")
			sem.Release(2)
		})
		small := p.Spawn("small", func(q *Proc) {
			q.Sleep(time.Millisecond) // queues after big
			sem.Acquire(q, 1)
			order = append(order, "small")
			sem.Release(1)
		})
		p.Sleep(time.Second)
		sem.Release(3)
		p.Join(big)
		p.Join(small)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "big" || order[1] != "small" {
		t.Fatalf("admission order = %v, want [big small]", order)
	}
}

func TestSemaphoreReleaseOverflowPanics(t *testing.T) {
	s := NewScheduler()
	err := s.Run(func(p *Proc) {
		sem := s.NewSemaphore(1)
		sem.Release(1)
	})
	if err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("err = %v, want overflow panic", err)
	}
}

func TestSemaphoreAcquireBeyondCapPanics(t *testing.T) {
	s := NewScheduler()
	err := s.Run(func(p *Proc) {
		sem := s.NewSemaphore(1)
		sem.Acquire(p, 2)
	})
	if err == nil || !strings.Contains(err.Error(), "exceeds capacity") {
		t.Fatalf("err = %v, want capacity panic", err)
	}
}

func TestPSResourceSingleJobExactDuration(t *testing.T) {
	// 100 units at 10 units/s -> 10s.
	elapsed, err := Elapsed(func(p *Proc) {
		r := p.s.NewPSResource(10)
		r.Use(p, 100)
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := absDur(elapsed - 10*time.Second); d > time.Millisecond {
		t.Fatalf("elapsed = %v, want ~10s", elapsed)
	}
}

func TestPSResourceFairSharing(t *testing.T) {
	// Two equal jobs share the link: both finish at 2x the solo time.
	elapsed, err := Elapsed(func(p *Proc) {
		r := p.s.NewPSResource(10)
		p.Parallel(2, "xfer", func(q *Proc, i int) { r.Use(q, 100) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := absDur(elapsed - 20*time.Second); d > time.Millisecond {
		t.Fatalf("elapsed = %v, want ~20s", elapsed)
	}
}

func TestPSResourceStaggeredArrivals(t *testing.T) {
	// Job A: 100 units starting at t=0. Job B: 100 units starting at t=5s.
	// 0..5s: A alone, served 50. 5s..: both at rate 5/s. A has 50 left ->
	// finishes at 15s. B then alone with 50 left at 10/s -> finishes at 20s.
	var aDone, bDone Time
	elapsed, err := Elapsed(func(p *Proc) {
		r := p.s.NewPSResource(10)
		a := p.Spawn("a", func(q *Proc) {
			r.Use(q, 100)
			aDone = q.Now()
		})
		b := p.Spawn("b", func(q *Proc) {
			q.Sleep(5 * time.Second)
			r.Use(q, 100)
			bDone = q.Now()
		})
		p.Join(a)
		p.Join(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := absDur(aDone - 15*time.Second); d > time.Millisecond {
		t.Fatalf("a finished at %v, want ~15s", aDone)
	}
	if d := absDur(bDone - 20*time.Second); d > time.Millisecond {
		t.Fatalf("b finished at %v, want ~20s", bDone)
	}
	if d := absDur(elapsed - 20*time.Second); d > time.Millisecond {
		t.Fatalf("elapsed = %v, want ~20s", elapsed)
	}
}

func TestPSResourceConservation(t *testing.T) {
	// The arrivals overlap, so the resource is never idle: a
	// work-conserving resource ends when the 150 units are served at 7/s.
	var r *PSResource
	elapsed, err := Elapsed(func(p *Proc) {
		r = p.s.NewPSResource(7)
		p.Parallel(5, "xfer", func(q *Proc, i int) {
			q.Sleep(time.Duration(i) * 300 * time.Millisecond)
			r.Use(q, float64(10*(i+1)))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	units := 10.0 + 20 + 30 + 40 + 50
	want := time.Duration(units / 7 * float64(time.Second))
	if d := absDur(elapsed - want); d > time.Millisecond {
		t.Fatalf("elapsed = %v, want ~%v", elapsed, want)
	}
	if len(r.jobs) != 0 {
		t.Fatalf("%d jobs in flight after all are done", len(r.jobs))
	}
}

func TestPSResourceZeroAmountImmediate(t *testing.T) {
	elapsed, err := Elapsed(func(p *Proc) {
		r := p.s.NewPSResource(1)
		r.Use(p, 0)
		r.Use(p, -5)
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed != 0 {
		t.Fatalf("elapsed = %v, want 0", elapsed)
	}
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
