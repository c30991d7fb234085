package dag

import (
	"context"
	"fmt"
	"testing"

	"astra/internal/model"
	"astra/internal/workload"
)

func TestDominatedTierPruning(t *testing.T) {
	m := testModel() // speed floor at 1792
	full := m.P.Sheet.Lambda.MemoryTiers()
	d, err := BuildContext(context.Background(), m, MinimizeTime, Options{Tiers: full})
	if err != nil {
		t.Fatal(err)
	}
	// Pruned tier set: 128..1792 = 27 tiers.
	wantL := 27
	n := m.P.Job.NumObjects
	if want := wantNodes(wantL, n, d.nJC); d.G.NumNodes() != want {
		t.Fatalf("nodes = %d, want %d (pruned to %d tiers)", d.G.NumNodes(), want, wantL)
	}
}

func TestFloorAppendedWhenMissing(t *testing.T) {
	// A tier list ending below the floor gets the floor appended so the
	// fastest speed remains reachable.
	m := testModel()
	d, err := BuildContext(context.Background(), m, MinimizeTime, Options{Tiers: []int{128, 512}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.G.ShortestPath(d.Src, d.Dst)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := d.Decode(p)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MapperMemMB != 1792 {
		t.Fatalf("fastest plan uses %d MB, want the appended 1792 floor", cfg.MapperMemMB)
	}
}

// TestTiersIsTheLayoutRule: Tiers returns the tier list the built graph
// searches — dominated tiers dropped and the floor appended — so a solver
// outside the DAG (the optimizer's brute force) can search the same space.
func TestTiersIsTheLayoutRule(t *testing.T) {
	m := testModel() // speed floor at 1792
	for _, tc := range []struct {
		opts Options
		want []int
	}{
		{Options{Tiers: []int{128, 512, 1024, 1536, 3008}}, []int{128, 512, 1024, 1536, 1792}},
		{Options{Tiers: []int{128, 512}}, []int{128, 512, 1792}},
		{Options{Tiers: []int{128, 1792, 3008}}, []int{128, 1792}},
	} {
		got := Tiers(m.P, tc.opts)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("Tiers(%+v) = %v, want %v", tc.opts, got, tc.want)
		}
		d, err := BuildContext(context.Background(), m, MinimizeTime, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(d.tiers) != fmt.Sprint(got) {
			t.Errorf("%+v: the graph searches %v, Tiers says %v", tc.opts, d.tiers, got)
		}
	}
	if got := Tiers(m.P, Options{}); len(got) != 27 || got[len(got)-1] != 1792 {
		t.Errorf("Tiers over the price sheet = %d tiers ending at %d, want 27 ending at 1792", len(got), got[len(got)-1])
	}
}

func TestBuildRejectsInvalidParams(t *testing.T) {
	bad := model.NewPaper(model.Params{})
	if _, err := BuildContext(context.Background(), bad, MinimizeTime, Options{}); err == nil {
		t.Fatal("invalid params should fail")
	}
}

func TestSingleStepProfileDAG(t *testing.T) {
	// Sort's single-step orchestration flows through the DAG builder too.
	p := model.DefaultParams(workload.Job{
		Profile: workload.Sort, NumObjects: 12, ObjectSize: 8 << 20,
	})
	d, err := BuildContext(context.Background(), model.NewPaper(p), MinimizeTime, Options{Tiers: testTiers})
	if err != nil {
		t.Fatal(err)
	}
	path, err := d.G.ShortestPath(d.Src, d.Dst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Decode(path); err != nil {
		t.Fatal(err)
	}
}
