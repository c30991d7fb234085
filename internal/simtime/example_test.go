package simtime_test

import (
	"fmt"
	"time"

	"astra/internal/simtime"
)

// Two ten-second tasks running in parallel consume ten seconds of
// virtual time — and almost none of wall time.
func ExampleScheduler_Run() {
	s := simtime.NewScheduler()
	err := s.Run(func(p *simtime.Proc) {
		a := p.Spawn("a", func(q *simtime.Proc) { q.Sleep(10 * time.Second) })
		b := p.Spawn("b", func(q *simtime.Proc) { q.Sleep(10 * time.Second) })
		p.Join(a)
		p.Join(b)
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(s.Now())
	// Output:
	// 10s
}

// A FIFO semaphore turns 6 one-second tasks into 3 waves of 2.
func ExampleSemaphore() {
	s := simtime.NewScheduler()
	sem := s.NewSemaphore(2)
	err := s.Run(func(p *simtime.Proc) {
		p.Parallel(6, "task", func(q *simtime.Proc, i int) {
			sem.Acquire(q, 1)
			q.Sleep(time.Second)
			sem.Release(1)
		})
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(s.Now())
	// Output:
	// 3s
}

// Processor sharing: two equal transfers over one link each take twice
// the solo time.
func ExamplePSResource() {
	s := simtime.NewScheduler()
	link := s.NewPSResource(100) // 100 units/second
	err := s.Run(func(p *simtime.Proc) {
		p.Parallel(2, "xfer", func(q *simtime.Proc, i int) {
			link.Use(q, 100)
		})
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(s.Now().Round(time.Millisecond))
	// Output:
	// 2s
}
