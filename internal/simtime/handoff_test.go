package simtime

import (
	"strings"
	"testing"
	"time"
)

// TestLoneSleeperNeverHandsOff: a process whose own resume is always the
// next event keeps the baton, so 10k sleeps cost no goroutine switch.
func TestLoneSleeperNeverHandsOff(t *testing.T) {
	s := NewScheduler()
	var during int
	err := s.Run(func(p *Proc) {
		h0 := s.Handoffs()
		for i := 0; i < 10_000; i++ {
			p.Sleep(time.Microsecond)
		}
		during = s.Handoffs() - h0
	})
	if err != nil {
		t.Fatal(err)
	}
	if during != 0 {
		t.Fatalf("10k sleeps made %d handoffs, want 0", during)
	}
	if s.Now() != 10_000*time.Microsecond {
		t.Fatalf("clock = %v, want 10ms", s.Now())
	}
}

// TestParallelWaveHandoffs pins a 100-way fork-join wave: one handoff per
// child start, one per child resume and one back to the joining parent.
func TestParallelWaveHandoffs(t *testing.T) {
	const pinned = 201
	s := NewScheduler()
	var wave int
	err := s.Run(func(p *Proc) {
		h0 := s.Handoffs()
		p.Parallel(100, "w", func(q *Proc, i int) { q.Sleep(time.Millisecond) })
		wave = s.Handoffs() - h0
	})
	if err != nil {
		t.Fatal(err)
	}
	if wave > pinned {
		t.Fatalf("Parallel(100) made %d handoffs, want <= %d", wave, pinned)
	}
}

// TestCallbackPanicEndsRun: a callback that panics while a finishing
// process runs the loop fails the run instead of the program, and the
// process still blocked is unwound.
func TestCallbackPanicEndsRun(t *testing.T) {
	s := NewScheduler()
	err := s.Run(func(p *Proc) {
		l := s.NewLatch()
		p.Spawn("stuck", func(q *Proc) { l.Wait(q) })
		p.Spawn("short", func(q *Proc) { q.Sleep(time.Millisecond) })
		s.After(time.Second, func() { panic("boom") })
	})
	if err == nil || !strings.Contains(err.Error(), "callback panicked: boom") {
		t.Fatalf("err = %v, want a callback panic", err)
	}
	if len(s.live) != 0 {
		t.Fatalf("teardown left %d live processes", len(s.live))
	}
}
