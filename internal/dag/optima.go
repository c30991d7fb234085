package dag

import (
	"context"
	"math"
	"slices"
	"sort"
	"sync"

	"astra/internal/graph"
	"astra/internal/telemetry"
)

// optimum is one certified answer: path is the unique constrained
// optimum at every budget in [lo, hi) (hi = +Inf covering +Inf; see
// graph.Certificate).
type optimum struct {
	lo, hi float64
	path   graph.Path
}

// optima is a template's memo of certified constrained optima, kept in
// ascending lo. Two certificates that overlap certify the same path, the
// unique optimum on the overlap, and every certificate of a path starts
// at that path's own lo; so a new certificate either widens its path's
// entry or lands disjoint from every other, and the entries stay
// pairwise disjoint, at most one per distinct optimum: the DAG's Pareto
// front bounds their number.
type optima struct {
	mu      sync.Mutex
	entries []optimum
}

// lookup returns the entry whose interval holds budget.
func (m *optima) lookup(budget float64) (optimum, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].lo > budget }) - 1
	if i < 0 {
		return optimum{}, false
	}
	e := m.entries[i]
	if budget < e.hi || math.IsInf(e.hi, 1) {
		return e, true
	}
	return optimum{}, false
}

// insert records a certified answer. An entry for the same path widens
// to the larger hi; one that would overlap an entry for another path is
// dropped — certificates exclude that, so it is kept out rather than
// trusted.
func (m *optima) insert(e optimum) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].lo >= e.lo })
	if i < len(m.entries) && m.entries[i].lo == e.lo && samePath(m.entries[i].path, e.path) {
		if i+1 == len(m.entries) || e.hi <= m.entries[i+1].lo {
			m.entries[i].hi = max(m.entries[i].hi, e.hi)
		}
		return
	}
	if i > 0 && m.entries[i-1].hi > e.lo {
		return
	}
	if i < len(m.entries) && e.hi > m.entries[i].lo {
		return
	}
	m.entries = slices.Insert(m.entries, i, e)
}

func samePath(a, b graph.Path) bool {
	return a.W == b.W && a.Side == b.Side && slices.Equal(a.Nodes, b.Nodes)
}

// ConstrainedPath is the minimum-W source-to-destination path whose Side
// stays within budget: graph.CertifiedShortestPathCtx over the
// template's to-go bounds, whose answer it returns bit for bit. It keeps
// every answer the search certifies as the unique optimum on a budget
// interval, and answers a later call whose budget falls in a kept
// interval from it without a search. Such a hit books
// astra_csp_memo_hits_total and no labels. The constrained optimum is a
// step function of the budget, so a template's hot budgets stop
// searching after their first plan. The returned path's Nodes are shared
// and must not be modified. Safe for concurrent use.
func (d *DAG) ConstrainedPath(ctx context.Context, budget float64) (graph.Path, error) {
	if e, ok := d.optima.lookup(budget); ok {
		if err := ctx.Err(); err != nil {
			return graph.Path{}, err
		}
		telemetry.FromContext(ctx).Counter(telemetry.MCSPMemoHits).Inc()
		return e.path, nil
	}
	p, cert, err := d.G.CertifiedShortestPathCtx(ctx, d.Src, d.Dst, budget, d.ToGoBounds(ctx))
	if err == nil && cert.Unique {
		d.optima.insert(optimum{lo: cert.Lo, hi: cert.Hi, path: p})
	}
	return p, err
}
