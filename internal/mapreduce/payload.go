package mapreduce

import (
	"encoding/binary"
	"errors"
)

// taskPayload is a mapper's or reducer's input: the objects to read and
// the key its one output object is written under.
type taskPayload struct {
	Keys []string
	Out  string
}

var errBadPayload = errors.New("mapreduce: malformed task payload")

// encode lays the payload out as length-prefixed fields: a uvarint byte
// length and the bytes, for Out and then for each key. Any byte string
// round-trips; the platform treats payloads as opaque.
func (t taskPayload) encode() []byte {
	n := uvarintLen(len(t.Out)) + len(t.Out)
	for _, k := range t.Keys {
		n += uvarintLen(len(k)) + len(k)
	}
	b := make([]byte, 0, n)
	b = appendField(b, t.Out)
	for _, k := range t.Keys {
		b = appendField(b, k)
	}
	return b
}

// decodeTaskPayload is encode's inverse. Truncated or trailing bytes are
// an error. It allocates twice: one string holding every field, and the
// key slice.
func decodeTaskPayload(b []byte) (taskPayload, error) {
	n := 0
	for off := 0; off < len(b); n++ {
		_, end, err := field(b, off)
		if err != nil {
			return taskPayload{}, err
		}
		off = end
	}
	if n == 0 {
		return taskPayload{}, errBadPayload
	}
	var t taskPayload
	if n > 1 {
		t.Keys = make([]string, 0, n-1)
	}
	s := string(b)
	for off := 0; off < len(b); {
		start, end, _ := field(b, off)
		if off == 0 {
			t.Out = s[start:end]
		} else {
			t.Keys = append(t.Keys, s[start:end])
		}
		off = end
	}
	return t, nil
}

func appendField(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// field locates the field whose length prefix starts at b[off]: its bytes
// are b[start:end].
func field(b []byte, off int) (start, end int, err error) {
	n, w := binary.Uvarint(b[off:])
	if w <= 0 || n > uint64(len(b)-off-w) {
		return 0, 0, errBadPayload
	}
	start = off + w
	return start, start + int(n), nil
}

func uvarintLen(n int) int {
	w := 1
	for ; n >= 0x80; n >>= 7 {
		w++
	}
	return w
}
