package dag

import (
	"context"
	"testing"

	"astra/internal/model"
)

// BenchmarkColdBuild is one cold template build per op, cycling over 24
// shapes: {sort, query, wordcount} x N in {64, 97, 136, 207} x both modes,
// under default tiers, as a planning service builds a shape it has never
// seen. "pool" evaluates weights on a worker pool at every core, the
// default; "serial" at Parallelism 1, as astra-server builds. Run it with
// -benchmem: allocs/op and B/op are what a cold plan's build leaves for
// the collector.
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
	for _, c := range []struct {
		name string
		opts Options
	}{{"pool", Options{}}, {"serial", Options{Parallelism: 1}}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := shapes[i%len(shapes)]
				if _, err := BuildContext(ctx, s.m, s.mode, c.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
