package simtime

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	elapsed, err := Elapsed(func(p *Proc) {
		p.Sleep(3 * time.Second)
		p.Sleep(2 * time.Second)
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed != 5*time.Second {
		t.Fatalf("elapsed = %v, want 5s", elapsed)
	}
}

func TestSleepNegativeTreatedAsZero(t *testing.T) {
	elapsed, err := Elapsed(func(p *Proc) { p.Sleep(-time.Second) })
	if err != nil {
		t.Fatal(err)
	}
	if elapsed != 0 {
		t.Fatalf("elapsed = %v, want 0", elapsed)
	}
}

func TestSpawnJoinParallelism(t *testing.T) {
	// Two 10s children spawned in parallel: total virtual time 10s, not 20s.
	elapsed, err := Elapsed(func(p *Proc) {
		a := p.Spawn("a", func(q *Proc) { q.Sleep(10 * time.Second) })
		b := p.Spawn("b", func(q *Proc) { q.Sleep(10 * time.Second) })
		p.Join(a)
		p.Join(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed != 10*time.Second {
		t.Fatalf("elapsed = %v, want 10s", elapsed)
	}
}

func TestJoinFinishedProcessReturnsImmediately(t *testing.T) {
	elapsed, err := Elapsed(func(p *Proc) {
		a := p.Spawn("a", func(q *Proc) { q.Sleep(time.Second) })
		p.Sleep(5 * time.Second)
		p.Join(a) // already done
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed != 5*time.Second {
		t.Fatalf("elapsed = %v, want 5s", elapsed)
	}
}

func TestParallelForkJoin(t *testing.T) {
	var order []int
	elapsed, err := Elapsed(func(p *Proc) {
		p.Parallel(4, "w", func(q *Proc, i int) {
			q.Sleep(time.Duration(i+1) * time.Second)
			order = append(order, i)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed != 4*time.Second {
		t.Fatalf("elapsed = %v, want 4s", elapsed)
	}
	want := []int{0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order = %v, want %v", order, want)
		}
	}
}

func TestDeterministicEventOrderAtSameInstant(t *testing.T) {
	run := func() []int {
		var order []int
		_, err := Elapsed(func(p *Proc) {
			p.Parallel(8, "w", func(q *Proc, i int) {
				q.Sleep(time.Second) // all wake at the same instant
				order = append(order, i)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	for trial := 0; trial < 10; trial++ {
		got := run()
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("run %d differs: %v vs %v", trial, got, first)
			}
		}
	}
	// FIFO among same-instant events means spawn order is completion order.
	for i, v := range first {
		if v != i {
			t.Fatalf("same-instant order = %v, want ascending", first)
		}
	}
}

func TestAfterCallbackFires(t *testing.T) {
	var fired Time
	elapsed, err := Elapsed(func(p *Proc) {
		p.s.After(3*time.Second, func() { fired = p.s.Now() })
		p.Sleep(10 * time.Second)
	})
	if err != nil {
		t.Fatal(err)
	}
	if fired != 3*time.Second {
		t.Fatalf("callback fired at %v, want 3s", fired)
	}
	if elapsed != 10*time.Second {
		t.Fatalf("elapsed = %v, want 10s", elapsed)
	}
}

func TestEventCancel(t *testing.T) {
	fired := false
	_, err := Elapsed(func(p *Proc) {
		ev := p.s.After(time.Second, func() { fired = true })
		ev.Cancel()
		p.Sleep(5 * time.Second)
	})
	if err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestAtInThePastClampsToNow(t *testing.T) {
	var fired Time = -1
	_, err := Elapsed(func(p *Proc) {
		p.Sleep(5 * time.Second)
		p.s.At(time.Second, func() { fired = p.s.Now() })
		p.Sleep(time.Second)
	})
	if err != nil {
		t.Fatal(err)
	}
	if fired != 5*time.Second {
		t.Fatalf("past-dated callback fired at %v, want clamped to 5s", fired)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := NewScheduler()
	err := s.Run(func(p *Proc) {
		l := s.NewLatch()
		l.Wait(p) // nobody will ever Done it
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if !strings.Contains(err.Error(), "latch") {
		t.Fatalf("deadlock diagnostic %q should name the latch", err)
	}
}

func TestPanicPropagation(t *testing.T) {
	s := NewScheduler()
	err := s.Run(func(p *Proc) {
		p.Spawn("bomb", func(q *Proc) { panic("boom") })
		p.Sleep(time.Hour)
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic propagated", err)
	}
}

func TestRunTwiceRejected(t *testing.T) {
	s := NewScheduler()
	if err := s.Run(func(p *Proc) {}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(func(p *Proc) {}); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestLatchWakesAllWaiters(t *testing.T) {
	elapsed, err := Elapsed(func(p *Proc) {
		l := p.s.NewLatch()
		var ws []*Proc
		for i := 0; i < 3; i++ {
			ws = append(ws, p.Spawn("w", func(q *Proc) {
				l.Wait(q)
				q.Sleep(time.Second)
			}))
		}
		p.Sleep(10 * time.Second)
		l.Done()
		l.Done() // idempotent
		p.JoinAll(ws)
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed != 11*time.Second {
		t.Fatalf("elapsed = %v, want 11s", elapsed)
	}
}

func TestLatchWaitAfterDone(t *testing.T) {
	elapsed, err := Elapsed(func(p *Proc) {
		l := p.s.NewLatch()
		l.Done()
		l.Wait(p) // immediate
		p.Sleep(time.Second)
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed != time.Second {
		t.Fatalf("elapsed = %v, want 1s", elapsed)
	}
}

func TestElapsedReportsVirtualNotWallTime(t *testing.T) {
	start := time.Now()
	elapsed, err := Elapsed(func(p *Proc) { p.Sleep(24 * time.Hour) })
	if err != nil {
		t.Fatal(err)
	}
	if elapsed != 24*time.Hour {
		t.Fatalf("elapsed = %v, want 24h", elapsed)
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("simulating 24h took %v of wall time", wall)
	}
}
