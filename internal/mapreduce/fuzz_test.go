package mapreduce

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzOrchestrate drives the Table I recurrence with arbitrary inputs:
// it must never panic, and every accepted input must satisfy the shape
// invariants (the mapper split partitions the objects with no load above
// k_M, each step consumes exactly the previous step's outputs, the
// cascade converges). Seeds beyond the four below — a collapsed k_R = 1
// cascade, one mapper, one reducer taking a tailed mapper split, a deep
// cascade — are checked in under testdata/fuzz/FuzzOrchestrate.
func FuzzOrchestrate(f *testing.F) {
	f.Add(10, 2, 2)
	f.Add(202, 1, 11)
	f.Add(1, 1, 1)
	f.Add(200, 4, 8)
	f.Fuzz(func(t *testing.T, n, kM, kR int) {
		o, err := Orchestrate(n, kM, kR)
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		ml := o.MapperLoads
		if ml.Objects() != n || ml.Max() != kM || ml.Load(ml.Count()-1) <= 0 {
			t.Fatalf("mapper split %+v of %d objects at k_M=%d", ml, n, kM)
		}
		prev := o.Mappers()
		for p := 0; p < o.NumSteps(); p++ {
			s := o.Step(p)
			if s.Objects() != prev {
				t.Fatalf("step consumes %d, previous produced %d", s.Objects(), prev)
			}
			prev = s.Count()
		}
		if prev != 1 {
			t.Fatalf("cascade did not converge: %+v", o)
		}
	})
}

// FuzzWordCountRoundTrip feeds arbitrary text through Map and checks the
// intermediate format round-trips through parseCounts.
func FuzzWordCountRoundTrip(f *testing.F) {
	f.Add([]byte("hello world hello"))
	f.Add([]byte(""))
	f.Add([]byte("a\tb\nc"))
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := WordCountApp{}.Map([][]byte{data})
		if err != nil {
			t.Fatalf("Map failed on %q: %v", data, err)
		}
		counts := map[string]int64{}
		if err := parseCounts(out, counts); err != nil {
			t.Fatalf("Map emitted unparseable output for %q: %v", data, err)
		}
		// Re-rendering must be stable.
		again := renderCounts(counts)
		if !bytes.Equal(out, again) {
			t.Fatalf("render not canonical for %q", data)
		}
	})
}

// FuzzGrepNeverGrows: grep output is always a subset of the input lines.
func FuzzGrepNeverGrows(f *testing.F) {
	f.Add([]byte("lambda one\ntwo\n"), "lambda")
	f.Fuzz(func(t *testing.T, data []byte, pattern string) {
		if pattern == "" {
			return
		}
		out, err := (GrepApp{Pattern: pattern}).Map([][]byte{data})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) > len(data)+1 {
			t.Fatalf("grep output (%d bytes) exceeds input (%d bytes)", len(out), len(data))
		}
	})
}

// FuzzSortPreservesRecords: mapping arbitrary record text keeps the
// record multiset.
func FuzzSortPreservesRecords(f *testing.F) {
	f.Add([]byte("b\na\nc\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := SortApp{}.Map([][]byte{data})
		if err != nil {
			t.Fatal(err)
		}
		if len(splitRecords(out)) != len(splitRecords(data)) {
			t.Fatalf("record count changed: %q -> %q", data, out)
		}
	})
}

// FuzzQueryMapNeverPanics: arbitrary CSV-ish rows must be skipped or
// aggregated, never crash.
func FuzzQueryMapNeverPanics(f *testing.F) {
	f.Add([]byte("1.2.3.4,2001-01-01,10.50,UA,USA,en,cloud,5\n"))
	f.Add([]byte("garbage,,,,\n,,,,,,,\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := (QueryApp{}).Map([][]byte{data}); err != nil {
			t.Fatalf("query map errored on junk: %v", err)
		}
	})
}

// FuzzTaskPayload: encoding then decoding a task payload is the identity
// for any output key and key list, and decoding never panics. keyBlob
// spells the key list as length-byte-prefixed keys (a zero byte is an
// empty key, an empty blob an empty list); every cut of an encoding that
// falls inside a field must fail to decode, and garbage either fails or
// decodes to a payload that round-trips. The seeds under
// testdata/fuzz/FuzzTaskPayload cover empty keys, an empty key list,
// newlines, quotes and non-UTF-8 bytes.
func FuzzTaskPayload(f *testing.F) {
	f.Add("map/part-00000", []byte("\x03a/b\x03c/d"), []byte{})
	f.Fuzz(func(t *testing.T, out string, keyBlob, garbage []byte) {
		var keys []string
		for len(keyBlob) > 0 {
			n := min(int(keyBlob[0]), len(keyBlob)-1)
			keys = append(keys, string(keyBlob[1:1+n]))
			keyBlob = keyBlob[1+n:]
		}
		enc := taskPayload{Keys: keys, Out: out}.encode()
		got, err := decodeTaskPayload(enc)
		if err != nil {
			t.Fatalf("decode(encode(%q, %q)): %v", out, keys, err)
		}
		if got.Out != out || !slices.Equal(got.Keys, keys) {
			t.Fatalf("round trip: got (%q, %q), want (%q, %q)", got.Out, got.Keys, out, keys)
		}

		boundary := map[int]bool{}
		for i := 0; i <= len(keys); i++ {
			boundary[len(taskPayload{Keys: keys[:i], Out: out}.encode())] = true
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := decodeTaskPayload(enc[:cut]); err == nil && !boundary[cut] {
				t.Fatalf("decode of %d of %d bytes of (%q, %q) succeeded", cut, len(enc), out, keys)
			}
		}

		g, err := decodeTaskPayload(garbage)
		if err != nil {
			return
		}
		again, err := decodeTaskPayload(g.encode())
		if err != nil || again.Out != g.Out || !slices.Equal(again.Keys, g.Keys) {
			t.Fatalf("garbage %q decoded to (%q, %q), which does not round-trip", garbage, g.Out, g.Keys)
		}
	})
}
