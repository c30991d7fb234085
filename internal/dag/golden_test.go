package dag

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
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
	if !update {
		want, err := os.ReadFile(goldenPlansPath)
		if err != nil {
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
	matchGolden(t, goldenPlansPath, got.Bytes(), "plan")
}

// matchGolden compares what a golden test produced with the file at
// path, naming the first line that differs, or rewrites the file under
// UPDATE_GOLDEN=1.
func matchGolden(t *testing.T, path string, got []byte, what string) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("%s moved (UPDATE_GOLDEN=1 only if the model changed):\n got  %s\n want %s", what, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("%s has %d lines, the suite produced %d", path, len(wl), len(gl))
	}
}

const goldenEdgesPath = "testdata/edges.golden"

// TestEdgesMatchGolden pins every edge weight of a build, not only the
// ones a solved path crosses: for every built-in profile x N in {1, 2, 3,
// 7, 16, 20, 64, 97, 136, 207} x object sizes {1 MB, 32 MB, 1 GB} x both
// modes under default options, the node count, the edge count and an
// FNV-64a digest of every edge's (from, to, W bits, Side bits) in node
// order. plans.golden cannot see a weight that moves off the optimum;
// this file can, so a change to how the builder evaluates weights that
// should be output-neutral must leave it untouched.
func TestEdgesMatchGolden(t *testing.T) {
	ctx := context.Background()
	var got bytes.Buffer
	for _, name := range workload.Names() {
		pf, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 3, 7, 16, 20, 64, 97, 136, 207} {
			for _, size := range []int64{1 << 20, 32 << 20, 1 << 30} {
				m := model.NewPaper(model.DefaultParams(workload.Job{Profile: pf, NumObjects: n, ObjectSize: size}))
				for _, mode := range []Mode{MinimizeTime, MinimizeCost} {
					d, err := BuildContext(ctx, m, mode, Options{})
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&got, "%s %d %d %s %d %d %016x\n", name, n, size, mode,
						d.G.NumNodes(), d.G.NumEdges(), edgeDigest(d.G))
				}
			}
		}
	}
	matchGolden(t, goldenEdgesPath, got.Bytes(), "edge weight")
}

// edgeDigest hashes every edge of g in node order.
func edgeDigest(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for u := 0; u < g.NumNodes(); u++ {
		for _, e := range g.EdgesFrom(u) {
			u64(uint64(u))
			u64(uint64(e.To))
			u64(math.Float64bits(e.W))
			u64(math.Float64bits(e.Side))
		}
	}
	return h.Sum64()
}
