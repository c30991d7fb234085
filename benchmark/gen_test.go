package main

import (
	"bytes"
	"fmt"
	"testing"
)

// testGenerator returns a generator usable without a server: on
// binding_constraint the cost ranges warm-up would learn are made up.
func testGenerator(seed int64, w workloadID) *generator {
	g := newGenerator(seed, w)
	for s := range g.ranges {
		g.ranges[s] = costRange{Min: 0.001 * float64(s+1), Max: 0.003 * float64(s+1)}
	}
	return g
}

// wire renders the first n requests exactly as the client would send them.
func wire(g *generator, n int) []byte {
	var c conn
	var out []byte
	for i := 0; i < n; i++ {
		r := g.request(i)
		c.render(&r)
		out = append(out, c.out...)
	}
	return out
}

func TestSequenceIsAPureFunctionOfSeedWorkloadIndex(t *testing.T) {
	for w := workloadID(0); w < numWorkloads; w++ {
		a, b := wire(testGenerator(1, w), 300), wire(testGenerator(1, w), 300)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generators with seed 1 disagree", workloads[w].Name)
		}
		if bytes.Equal(a, wire(testGenerator(2, w), 300)) {
			t.Errorf("%s: seeds 1 and 2 give the same bytes", workloads[w].Name)
		}
		// Request i does not depend on which requests were drawn before it.
		g := testGenerator(1, w)
		late := g.request(299)
		g2 := testGenerator(1, w)
		for i := 0; i < 299; i++ {
			g2.request(i)
		}
		if again := g2.request(299); !bytes.Equal(late.Body, again.Body) || late.Path != again.Path || late.Tenant != again.Tenant {
			t.Errorf("%s: request 299 depends on history", workloads[w].Name)
		}
	}
}

func TestEveryBlockServesEveryCellOnce(t *testing.T) {
	for w := workloadID(0); w < numWorkloads; w++ {
		n := workloads[w].Block
		g := testGenerator(7, w)
		orders := map[string]bool{}
		for b := 0; b < 20; b++ {
			seen := make([]int, n)
			order := ""
			for k := 0; k < n; k++ {
				c := g.request(b*n + k).Cell
				seen[c]++
				order += fmt.Sprint(c, ",")
			}
			for c, count := range seen {
				if count != 1 {
					t.Fatalf("%s: block %d serves cell %d %d times", workloads[w].Name, b, c, count)
				}
			}
			orders[order] = true
		}
		if len(orders) < 2 {
			t.Errorf("%s: every block has the same order", workloads[w].Name)
		}
	}
}

func TestTenantsSpreadOverEight(t *testing.T) {
	g := testGenerator(1, templateHit)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[g.request(i).Tenant] = true
	}
	if len(seen) != numTenants {
		t.Errorf("200 requests used %d tenants, want %d", len(seen), numTenants)
	}
}

func TestRespHitRepeatsThirtyTwoBodies(t *testing.T) {
	g := testGenerator(3, respHit)
	bodies := map[string]bool{}
	for i := 0; i < 32*10; i++ {
		bodies[string(g.request(i).Body)] = true
	}
	if len(bodies) != 32 {
		t.Fatalf("%d distinct bodies, want 32", len(bodies))
	}
	for _, r := range g.warmup() {
		if !bodies[string(r.Body)] {
			t.Errorf("warm-up body %s is never replayed", r.Body)
		}
		delete(bodies, string(r.Body))
	}
	if len(bodies) != 0 {
		t.Errorf("%d replayed bodies are never primed", len(bodies))
	}
}

// Every request that must miss the response cache carries a constraint no
// other request of the run carries.
func TestMissingWorkloadsNeverRepeatABody(t *testing.T) {
	for _, w := range []workloadID{templateHit, bindingConstraint, coldShapes, executeRun} {
		g := testGenerator(5, w)
		seen := map[string]int{}
		for _, r := range g.warmup() {
			seen[string(r.Body)] = r.Index
		}
		for i := 0; i < 20000; i++ {
			r := g.request(i)
			if r.Kind != kindPlan {
				continue
			}
			if j, dup := seen[string(r.Body)]; dup {
				t.Fatalf("%s: requests %d and %d share the body %s", workloads[w].Name, j, i, r.Body)
			}
			seen[string(r.Body)] = i
		}
	}
}

func TestColdShapesAreNeverSeenBefore(t *testing.T) {
	g := testGenerator(9, coldShapes)
	seen := map[shape]int{}
	for _, r := range g.warmup() {
		if j, dup := seen[r.Shape]; dup {
			t.Fatalf("warm-up requests %d and %d share shape %v", j, r.Index, r.Shape)
		}
		seen[r.Shape] = r.Index
	}
	if len(seen) != coldWarmupPlans {
		t.Fatalf("%d warm-up shapes, want %d", len(seen), coldWarmupPlans)
	}
	perStratum := make([]int, coldStrata)
	for i := 0; i < 50000; i++ {
		r := g.request(i)
		if j, dup := seen[r.Shape]; dup {
			t.Fatalf("requests %d and %d share shape %v", j, i, r.Shape)
		}
		seen[r.Shape] = i
		n := r.Shape.NumObjects
		if n < coldMinN || n >= coldMinN+coldStrata*coldStratum {
			t.Fatalf("request %d: %d objects outside [%d, %d)", i, n, coldMinN, coldMinN+coldStrata*coldStratum)
		}
		perStratum[(n-coldMinN)/coldStratum]++
		if r.Shape.ObjectBytes < coldBaseBytes || (r.Shape.ObjectBytes-coldBaseBytes)%coldStepBytes != 0 {
			t.Fatalf("request %d: object_bytes %d off the 4 KiB grid", i, r.Shape.ObjectBytes)
		}
	}
	for s, count := range perStratum {
		if count != 50000/coldStrata {
			t.Errorf("stratum %d drew %d requests, want %d", s, count, 50000/coldStrata)
		}
	}
}

func TestBindingBudgetsSitInsideTheLearnedRange(t *testing.T) {
	g := testGenerator(1, bindingConstraint)
	for i := 0; i < 320; i++ {
		r := g.request(i)
		c := bindingCells[r.Cell]
		cr := g.ranges[c.Shape]
		if c.F < 0.5 || c.F > 0.95 {
			t.Fatalf("cell %d: f = %v outside [0.5, 0.95]", r.Cell, c.F)
		}
		want := cr.Min + c.F*(cr.Max-cr.Min)
		if d := r.BudgetUSD/want - 1; d < 0 || d > 1e-6 {
			t.Fatalf("request %d: budget %v is not %v nudged up by under 1e-6", i, r.BudgetUSD, want)
		}
		if r.Shape != smallShapes[c.Shape] || r.Goal != minTime {
			t.Fatalf("request %d: %v %v, want %v min_time", i, r.Shape, r.Goal, smallShapes[c.Shape])
		}
	}
}

func TestExecuteRunReadsTheLedgerEverySixteenth(t *testing.T) {
	g := testGenerator(1, executeRun)
	for b := 0; b < 10; b++ {
		slo := 0
		for k := 0; k < 16; k++ {
			r := g.request(b*16 + k)
			switch r.Kind {
			case kindSLO:
				slo++
				if want := "/v1/tenants/" + tenantName(r.Tenant) + "/slo"; r.Path != want || r.Method != "GET" {
					t.Fatalf("SLO read is %s %s, want GET %s", r.Method, r.Path, want)
				}
			case kindPlan:
				if !r.Execute || !bytes.Contains(r.Body, []byte(`"execute":true`)) {
					t.Fatalf("request %d is not executed: %s", b*16+k, r.Body)
				}
			}
		}
		if slo != 1 {
			t.Fatalf("block %d has %d SLO reads, want 1", b, slo)
		}
	}
}

// The quality pass re-issues the same job and constraint, solved exactly
// and never executed.
func TestExactVariantKeepsJobAndConstraint(t *testing.T) {
	for _, w := range []workloadID{respHit, templateHit, bindingConstraint, coldShapes, executeRun} {
		g := testGenerator(1, w)
		for i := 0; i < 40; i++ {
			r, e := g.request(i), g.exact(i)
			if r.Kind != kindPlan {
				continue
			}
			if e.Shape != r.Shape || e.Goal != r.Goal || e.BudgetUSD != r.BudgetUSD || e.DeadlineNs != r.DeadlineNs {
				t.Fatalf("%s request %d: exact variant changed the job or constraint", workloads[w].Name, i)
			}
			if e.Execute || e.WantCache != "" || !bytes.Contains(e.Body, []byte(`"solver":"csp"`)) || bytes.Contains(e.Body, []byte("execute")) {
				t.Fatalf("%s request %d: exact variant is %s (execute %v, cache %q)", workloads[w].Name, i, e.Body, e.Execute, e.WantCache)
			}
		}
	}
}
