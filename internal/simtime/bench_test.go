package simtime

import (
	"testing"
	"time"
)

// BenchmarkSleepEvents measures raw event throughput: one process
// sleeping through b.N events.
func BenchmarkSleepEvents(b *testing.B) {
	b.ReportAllocs()
	s := NewScheduler()
	err := s.Run(func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	reportHandoffs(b, s)
}

// reportHandoffs adds the run's goroutine handoffs per iteration.
func reportHandoffs(b *testing.B, s *Scheduler) {
	b.ReportMetric(float64(s.Handoffs())/float64(b.N), "handoffs/op")
}

// BenchmarkSpawnJoin measures process creation/teardown cost.
func BenchmarkSpawnJoin(b *testing.B) {
	b.ReportAllocs()
	_, err := Elapsed(func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c := p.Spawn("w", func(q *Proc) {})
			p.Join(c)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkForkJoin100 measures a 100-way fork-join wave (the mapper
// pattern).
func BenchmarkForkJoin100(b *testing.B) {
	b.ReportAllocs()
	s := NewScheduler()
	err := s.Run(func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Parallel(100, "w", func(q *Proc, j int) {
				q.Sleep(time.Millisecond)
			})
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	reportHandoffs(b, s)
}

// BenchmarkSemaphoreContention measures FIFO semaphore throughput under
// 10x oversubscription.
func BenchmarkSemaphoreContention(b *testing.B) {
	b.ReportAllocs()
	_, err := Elapsed(func(p *Proc) {
		sem := p.s.NewSemaphore(10)
		for i := 0; i < b.N; i++ {
			p.Parallel(100, "w", func(q *Proc, j int) {
				sem.Acquire(q, 1)
				q.Sleep(time.Microsecond)
				sem.Release(1)
			})
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPSResource measures the processor-sharing recompute cost with
// 50 concurrent jobs.
func BenchmarkPSResource(b *testing.B) {
	b.ReportAllocs()
	_, err := Elapsed(func(p *Proc) {
		r := p.s.NewPSResource(1e9)
		for i := 0; i < b.N; i++ {
			p.Parallel(50, "xfer", func(q *Proc, j int) {
				r.Use(q, float64(1000*(j+1)))
			})
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
