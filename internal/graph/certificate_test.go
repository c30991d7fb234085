package graph

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// tiedDAG builds a random layered DAG whose weights are small multiples
// of unit, so W ties between paths, between labels and between a label
// and a budget are everywhere: exact ones when unit is 1, and with a
// unit like 0.37 also ties that rounding makes or breaks by an ULP. Each
// node keeps a random subset of its edges to the next layer (at least
// one), so the graph has up to a few hundred paths.
func tiedDAG(rng *rand.Rand, unit float64) (*Graph, int, int) {
	layers, width := 3+rng.Intn(3), 2+rng.Intn(3)
	n := layers*width + 2
	g := New(n)
	src, dst := 0, n-1
	node := func(l, i int) int { return 1 + l*width + i }
	weight := func() float64 { return float64(rng.Intn(5)) * unit }
	for i := 0; i < width; i++ {
		g.AddEdge(src, node(0, i), weight(), weight())
	}
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			first := rng.Intn(width)
			for j := 0; j < width; j++ {
				if j == first || rng.Intn(3) > 0 {
					g.AddEdge(node(l, i), node(l+1, j), weight(), weight())
				}
			}
		}
	}
	for i := 0; i < width; i++ {
		g.AddEdge(node(layers-1, i), dst, weight(), weight())
	}
	return g, src, dst
}

// sameAnswer reports whether two search results are the same answer:
// the same error, and on success the same nodes and the same W and Side
// bits.
func sameAnswer(p Path, err error, q Path, qerr error) bool {
	if (err == nil) != (qerr == nil) || (err != nil && !errors.Is(err, qerr)) {
		return false
	}
	return err != nil || (slices.Equal(p.Nodes, q.Nodes) &&
		math.Float64bits(p.W) == math.Float64bits(q.W) &&
		math.Float64bits(p.Side) == math.Float64bits(q.Side))
}

// certChecker runs certified searches and holds every unique certificate
// to what fresh searches answer at budgets Lo, Nextafter(Hi, 0), the
// search's own and one inside (+Inf too when Hi is).
type certChecker struct {
	t                       *testing.T
	unique, refused, probes int
}

func (c *certChecker) check(g *Graph, src, dst int, b *Bounds, budget, span float64) {
	t := c.t
	t.Helper()
	ctx := context.Background()
	p, cert, err := g.CertifiedShortestPathCtx(ctx, src, dst, budget, b)
	if err != nil || !cert.Unique {
		c.refused++
		return
	}
	c.unique++
	if !(cert.Lo <= budget && (budget < cert.Hi || math.IsInf(cert.Hi, 1))) {
		t.Fatalf("certificate %+v does not hold its own budget %v", cert, budget)
	}
	at := []float64{cert.Lo, budget}
	if mid := (cert.Lo + min(cert.Hi, span)) / 2; mid < cert.Hi {
		at = append(at, mid)
	}
	if math.IsInf(cert.Hi, 1) {
		at = append(at, math.Inf(1))
	} else {
		at = append(at, math.Nextafter(cert.Hi, 0))
	}
	for _, bb := range at {
		want, werr := g.ConstrainedShortestPathBoundedCtx(ctx, src, dst, bb, b, math.Inf(1))
		if !sameAnswer(p, nil, want, werr) {
			t.Fatalf("certificate %+v from budget %v answers %+v at budget %v; a fresh search returns %+v (%v)",
				cert, budget, p, bb, want, werr)
		}
		c.probes++
	}
}

func (c *certChecker) report() {
	c.t.Logf("%d unique certificates checked by %d fresh searches; %d refused", c.unique, c.probes, c.refused)
	if c.unique == 0 || c.refused == 0 {
		c.t.Fatalf("%d unique and %d refused certificates: the graphs exercise one side only", c.unique, c.refused)
	}
}

// TestCertificatesOnTiedGraphs checks the search's certificates, and two
// properties of the constrained optimum they rest on, on random layered
// DAGs with small integer weights:
//
//   - a unique certificate answers as a fresh search does at every
//     budget in [Lo, Hi), Lo and Nextafter(Hi, 0) included;
//   - the constrained optimum's W is non-increasing in the budget;
//   - a finite wLimit at or above the optimum returns a path of the
//     optimum's W. Not always the same path: when two paths tie in W to
//     the bit, which one pops first depends on the queue's layout, and
//     labels the wLimit discards change it. A certificate refuses such
//     ties, so its answers do not depend on the layout.
func TestCertificatesOnTiedGraphs(t *testing.T) {
	ctx := context.Background()
	inf := math.Inf(1)
	rng := rand.New(rand.NewSource(38))
	c := &certChecker{t: t}
	for trial := 0; trial < 300; trial++ {
		g, src, dst := tiedDAG(rng, 1)
		b := g.ToGoBounds(dst)
		minSide := b.SideToGo[src]
		free, err := g.ConstrainedShortestPathBoundedCtx(ctx, src, dst, inf, b, inf)
		if err != nil {
			t.Fatalf("trial %d: unconstrained search: %v", trial, err)
		}
		// Integer budgets sit exactly on path sides; half-integers between.
		budgets := []float64{inf}
		for x := free.Side + 1; x >= minSide-1; x -= 0.5 {
			budgets = append(budgets, x)
		}
		prevW := 0.0
		for _, budget := range budgets {
			opt, err := g.ConstrainedShortestPathBoundedCtx(ctx, src, dst, budget, b, inf)
			if err != nil {
				if !errors.Is(err, ErrInfeasible) || budget >= minSide {
					t.Fatalf("trial %d budget %v: %v (least side %v)", trial, budget, err, minSide)
				}
				continue
			}
			if opt.W < prevW {
				t.Fatalf("trial %d budget %v: optimum W %v is below %v, the optimum at a larger budget", trial, budget, opt.W, prevW)
			}
			prevW = opt.W
			for _, wLimit := range []float64{opt.W, opt.W + 0.5, opt.W + 1} {
				p, err := g.ConstrainedShortestPathBoundedCtx(ctx, src, dst, budget, b, wLimit)
				if err != nil || math.Float64bits(p.W) != math.Float64bits(opt.W) {
					t.Fatalf("trial %d budget %v wLimit %v: %+v (%v), at wLimit +Inf %+v", trial, budget, wLimit, p, err, opt)
				}
			}
			c.check(g, src, dst, b, budget, free.Side+2)
		}
	}
	c.report()
}

// TestCertificatesOnRoundedTiedGraphs holds certificates to fresh
// searches on graphs whose weights are multiples of 0.37: sums round,
// so paths, labels and budgets tie to the bit or miss by an ULP, and a
// label's priority can sit an ULP from its completion. Two queued labels
// that only rounding made equal are what the certificate's pop-tie rule
// is for. (Neither the monotonicity nor the wLimit property above holds
// to the bit here: the search is exact up to the ULPs its reverse-summed
// bounds carry.)
func TestCertificatesOnRoundedTiedGraphs(t *testing.T) {
	ctx := context.Background()
	inf := math.Inf(1)
	const unit = 0.37
	trials := 1500
	if testing.Short() {
		trials = 300
	}
	rng := rand.New(rand.NewSource(4))
	c := &certChecker{t: t}
	for trial := 0; trial < trials; trial++ {
		g, src, dst := tiedDAG(rng, unit)
		b := g.ToGoBounds(dst)
		free, err := g.ConstrainedShortestPathBoundedCtx(ctx, src, dst, inf, b, inf)
		if err != nil {
			t.Fatalf("trial %d: unconstrained search: %v", trial, err)
		}
		for x := b.SideToGo[src] - unit; x <= free.Side+unit; x += unit / 2 {
			c.check(g, src, dst, b, x, free.Side+2*unit)
		}
	}
	c.report()
}
