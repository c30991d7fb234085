package dag

import (
	"context"
	"testing"

	"astra/internal/model"
)

// BenchmarkColdBuild is one cold template build per op, cycling over 24
// shapes: {sort, query, wordcount} x N in {64, 97, 136, 207} x both modes,
// under default options (the worker pool at every core), as a planning
// service builds a shape it has never seen. Run it with -benchmem:
// allocs/op and B/op are what a cold plan's build leaves for the
// collector.
func BenchmarkColdBuild(b *testing.B) {
	type shape struct {
		m    *model.Paper
		mode Mode
	}
	var shapes []shape
	for _, n := range []int{64, 97, 136, 207} {
		for _, pf := range goldenProfiles {
			for _, mode := range []Mode{MinimizeTime, MinimizeCost} {
				shapes = append(shapes, shape{goldenModel(pf, n), mode})
			}
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := shapes[i%len(shapes)]
		if _, err := BuildContext(ctx, s.m, s.mode, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
