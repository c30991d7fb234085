package optimizer

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"astra/internal/model"
	"astra/internal/workload"
)

const frontierGoldenPath = "testdata/frontier.golden"

// goldenSweep runs one sweep on private caches, so the stats it books
// depend on nothing but the cell.
func goldenSweep(params model.Params, size, workers int) (*FrontierResult, error) {
	return (&Planner{Params: params, Parallelism: workers}).Frontier(context.Background(), size, nil)
}

// TestFrontierGolden is the frontier book: for {wordcount, sort, query}
// x N {16, 64} x size {8, 24}, every point of the swept frontier (its
// configuration and the float bits of its exact JCT and cost) and the
// sweep's searches, pruned deadlines and exact evaluations. Each cell is
// swept at parallelism 1 and 4, which must agree byte for byte. A change
// that moves a frontier point or the sweep's schedule shows here;
// UPDATE_GOLDEN=1 re-records the file, and the diff is the change's
// claim.
func TestFrontierGolden(t *testing.T) {
	var got bytes.Buffer
	got.WriteString("# 64 MiB objects; cell: workload N size | searches pruned evaluations points; then one line per point: config jct-bits cost-bits\n")
	for _, pf := range []workload.Profile{workload.WordCount, workload.Sort, workload.Query} {
		for _, n := range []int{16, 64} {
			params := model.DefaultParams(workload.Job{Profile: pf, NumObjects: n, ObjectSize: 64 << 20})
			for _, size := range []int{8, 24} {
				var cell [2]string
				for i, workers := range []int{1, 4} {
					res, err := goldenSweep(params, size, workers)
					if err != nil {
						t.Fatalf("%s/%d size %d workers %d: %v", pf.Name, n, size, workers, err)
					}
					var b strings.Builder
					st := res.Stats
					fmt.Fprintf(&b, "%s %d %d | %d %d %d %d\n", pf.Name, n, size, st.Searches, st.Pruned, st.Evaluations, len(res.Points))
					for _, p := range res.Points {
						fmt.Fprintf(&b, "  %s %016x %016x\n", qualityConfig(p.Config),
							math.Float64bits(p.Pred.TotalSec()), math.Float64bits(float64(p.Pred.TotalCost())))
					}
					cell[i] = b.String()
				}
				if cell[0] != cell[1] {
					t.Fatalf("%s/%d size %d: the sweep differs between parallelism 1 and 4:\n%s\n%s", pf.Name, n, size, cell[0], cell[1])
				}
				got.WriteString(cell[0])
			}
		}
	}

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(frontierGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(frontierGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(frontierGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("a frontier moved (UPDATE_GOLDEN=1 records it):\n got  %s\n want %s", gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("golden file has %d lines, the suite produced %d", len(wl), len(gl))
	}
}
