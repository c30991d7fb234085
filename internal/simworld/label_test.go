package simworld

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"astra/internal/mapreduce"
	"astra/internal/model"
	"astra/internal/telemetry"
	"astra/internal/workload"
)

// TestSimulationSamplesCarryPhaseLabel: every process goroutine of an
// executed run (spawned by RunContext's goroutine or by another process)
// inherits the phase=simulate pprof label that Simulate sets, so CPU
// samples taken inside a process body are attributed to the simulation.
// The test profiles executed runs until enough samples land inside
// process goroutines, then checks each of them carries the label.
func TestSimulationSamplesCarryPhaseLabel(t *testing.T) {
	params := model.DefaultParams(workload.Sort100GB())
	cfg := mapreduce.Config{MapperMemMB: 1792, CoordMemMB: 1792, ReducerMemMB: 1792,
		ObjsPerMapper: 2, ObjsPerReducer: 1}

	// Profile in 300 ms windows of back-to-back runs until ten samples
	// landed in process goroutines (about one window on an idle core).
	inProc, labelled := 0, 0
	for window := 0; window < 5 && inProc < 10; window++ {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			t.Skipf("CPU profile unavailable: %v", err)
		}
		for stop := time.Now().Add(300 * time.Millisecond); time.Now().Before(stop); {
			w, err := New(params, Input{Bucket: "input"})
			if err == nil {
				_, err = w.Run(context.Background(), cfg, nil, nil)
			}
			if err != nil {
				pprof.StopCPUProfile()
				t.Fatal(err)
			}
		}
		pprof.StopCPUProfile()
		samples, err := decodeCPUProfile(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			if !s.inFunc("simtime.(*Scheduler).runProc") {
				continue
			}
			inProc++
			if s.labels["phase"] == telemetry.PhaseSimulate {
				labelled++
			}
		}
	}
	if inProc == 0 {
		t.Fatal("no CPU sample landed in a process goroutine in 5 windows")
	}
	if labelled != inProc {
		t.Fatalf("%d of %d process-goroutine samples carry phase=%s", labelled, inProc, telemetry.PhaseSimulate)
	}
}

// cpuSample is one decoded profile sample: its stack's function names and
// its string labels.
type cpuSample struct {
	funcs  []string
	labels map[string]string
}

func (s cpuSample) inFunc(suffix string) bool {
	for _, f := range s.funcs {
		if strings.HasSuffix(f, suffix) {
			return true
		}
	}
	return false
}

// decodeCPUProfile reads the gzipped profile.proto that runtime/pprof
// writes, keeping only what cpuSample needs (the module has no pprof
// parser dependency). Field numbers are profile.proto's: Profile.sample
// 2, location 4, function 5, string_table 6; Sample.location_id 1,
// label 3; Label.key 1, str 2; Location.id 1, line 4; Line.function_id 1;
// Function.id 1, name 2.
func decodeCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		labels [][2]uint64
	}
	var (
		strs    []string
		samples []rawSample
		locFunc = map[uint64][]uint64{}
		funName = map[uint64]uint64{}
	)
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s rawSample
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = append(s.locs, pbVarints(v, b)...)
				case 3:
					var kv [2]uint64
					err := pbFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return pbFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fns
			return err
		case 5:
			var id, name uint64
			err := pbFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]cpuSample, len(samples))
	for i, s := range samples {
		out[i].labels = map[string]string{}
		for _, kv := range s.labels {
			out[i].labels[str(kv[0])] = str(kv[1])
		}
		for _, loc := range s.locs {
			for _, fn := range locFunc[loc] {
				out[i].funcs = append(out[i].funcs, str(funName[fn]))
			}
		}
	}
	return out, nil
}

var errBadProto = errors.New("malformed profile proto")

// pbFields calls fn on each field of one protobuf message: v for a
// varint, b for a length-delimited field. Fixed-width fields are skipped.
func pbFields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errBadProto
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errBadProto
			}
			msg = msg[n:]
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(msg) < w {
				return errBadProto
			}
			msg = msg[w:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errBadProto
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return errBadProto
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbVarints reads a repeated varint field in either encoding: one value
// (v, unpacked) or a packed run (b).
func pbVarints(v uint64, b []byte) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}
