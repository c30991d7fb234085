package dag

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"astra/internal/graph"
	"astra/internal/model"
	"astra/internal/workload"
)

const goldenPlansPath = "testdata/plans.golden"

var goldenProfiles = []workload.Profile{workload.Sort, workload.Query, workload.WordCount}
var goldenSizes = []int{16, 20, 64, 97, 136, 207}

func goldenModel(pf workload.Profile, n int) *model.Paper {
	return model.NewPaper(model.DefaultParams(workload.Job{Profile: pf, NumObjects: n, ObjectSize: 32 << 20}))
}

// goldenLine is one solved path: the float bits of its W and Side and the
// configuration it decodes to.
func goldenLine(t *testing.T, d *DAG, p graph.Path) string {
	t.Helper()
	cfg, err := d.Decode(p)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%016x %016x %d/%d/%d/%d/%d", math.Float64bits(p.W), math.Float64bits(p.Side),
		cfg.MapperMemMB, cfg.ObjsPerMapper, cfg.ObjsPerReducer, cfg.CoordMemMB, cfg.ReducerMemMB)
}

// TestPlansMatchGolden pins what the searches return on the built graph:
// for {sort, query, wordcount} x N in {16, 20, 64, 97, 136, 207} x both
// modes under default options, the unconstrained optimum and one exact
// constrained answer under a binding side limit (a budget in time mode, a
// deadline in cost mode), each as float bits plus the decoded
// configuration. The file was recorded on the seven-column graph that had
// the L^2 and N^2 fans; a change to the topology that moves one bit of it
// changed a plan. The side limit is an input: it is read back from the
// file, and only UPDATE_GOLDEN=1 re-derives it (halfway between the
// optimum's side and the smallest side any path has).
func TestPlansMatchGolden(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	limits := map[string]float64{}
	var want []byte
	if !update {
		var err error
		if want, err = os.ReadFile(goldenPlansPath); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(want)), "\n") {
			f := strings.Fields(line)
			if len(f) != 10 {
				t.Fatalf("malformed golden line %q", line)
			}
			bits, err := strconv.ParseUint(f[6], 16, 64)
			if err != nil {
				t.Fatal(err)
			}
			limits[f[0]+" "+f[1]+" "+f[2]] = math.Float64frombits(bits)
		}
	}
	ctx := context.Background()
	var got bytes.Buffer
	for _, pf := range goldenProfiles {
		for _, n := range goldenSizes {
			for _, mode := range []Mode{MinimizeTime, MinimizeCost} {
				d, err := BuildContext(ctx, goldenModel(pf, n), mode, Options{})
				if err != nil {
					t.Fatal(err)
				}
				best, err := d.G.ShortestPath(d.Src, d.Dst)
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s %d %s", pf.Name, n, mode)
				limit, ok := limits[key]
				if !ok {
					if !update {
						t.Fatalf("no golden line for %s", key)
					}
					limit = (best.Side + d.ToGoBounds(ctx).SideToGo[d.Src]) / 2
				}
				if !(limit < best.Side) {
					t.Fatalf("%s: side limit %v does not bind (optimum's side %v)", key, limit, best.Side)
				}
				bound, err := d.G.ConstrainedShortestPathCtx(ctx, d.Src, d.Dst, limit)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				fmt.Fprintf(&got, "%s %s %016x %s\n", key, goldenLine(t, d, best), math.Float64bits(limit), goldenLine(t, d, bound))
			}
		}
	}
	if update {
		if err := os.MkdirAll(filepath.Dir(goldenPlansPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPlansPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("plan moved (UPDATE_GOLDEN=1 only if the model changed):\n got  %s\n want %s", gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("golden file has %d lines, the suite produced %d", len(wl), len(gl))
	}
}
