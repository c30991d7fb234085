package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// HistogramSnapshot is one histogram's frozen state. Counts are
// per-bucket (non-cumulative); the last entry counts observations above
// every bound (+Inf).
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// Snapshot is a point-in-time copy of a registry: safe to read, diff and
// export while the live registry keeps moving.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Spans      []SpanRecord                 `json:"spans"`
	SpanDrops  int64                        `json:"span_drops"`
}

// Snapshot freezes the registry's current state. On a nil registry it
// returns an empty (but usable) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := r.metrics()
	if r == nil {
		return s
	}
	r.spanMu.Lock()
	s.Spans = append([]SpanRecord(nil), r.spans...)
	s.SpanDrops = r.spanDrops
	r.spanMu.Unlock()
	return s
}

// WritePrometheus renders the registry's counters, gauges and histograms
// as Snapshot.WritePrometheus does, without copying the span buffer the
// exposition never reads: a scrape costs the metrics alone, however many
// spans are retained.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.metrics().WritePrometheus(w)
}

// metrics freezes the registry's counters, gauges and histograms.
func (r *Registry) metrics() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Sum:    math.Float64frombits(h.sumBits.Load()),
			Count:  h.count.Load(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	r.mu.RUnlock()
	return s
}

// Counter reads one counter from the snapshot (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// SpansUnder returns the snapshot's spans whose path equals prefix or
// lives beneath it, in completion order.
func (s Snapshot) SpansUnder(prefix string) []SpanRecord {
	var out []SpanRecord
	for _, sp := range s.Spans {
		if sp.Path == prefix || strings.HasPrefix(sp.Path, prefix+"/") {
			out = append(out, sp)
		}
	}
	return out
}

// sortedKeys returns map keys in lexicographic order so exports are
// deterministic.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// promFloat renders a float per the Prometheus 0.0.4 text exposition
// rules: the special values are spelled "+Inf", "-Inf" and "NaN", and
// everything else uses Go's shortest %g form (which the format accepts).
func promFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}

// labelEscaper rewrites a label value per the 0.0.4 text format: the only
// characters with escape sequences are backslash, double-quote and
// newline; every other byte passes through raw (label values are
// arbitrary UTF-8, so Go's %q — which escapes non-ASCII — is wrong here).
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// EscapeLabelValue renders a label value for the text exposition format.
func EscapeLabelValue(v string) string { return labelEscaper.Replace(v) }

// LabelSeries builds a labeled series name — family{k1="v1",k2="v2"} —
// escaping each value per the exposition rules. Pairs are emitted in the
// given order; callers wanting one series must pass a stable order. The
// exporter understands these names: the TYPE comment uses the bare
// family, and histogram suffixes (_bucket, _sum, _count) are spliced in
// before the label set.
func LabelSeries(family string, kv ...string) string {
	if len(kv) == 0 {
		return family
	}
	var b strings.Builder
	b.WriteString(family)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// splitSeries separates a series name into its family and label body:
// "f{a=\"1\"}" -> ("f", `a="1"`); a bare name has an empty body.
func splitSeries(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// series derives a suffixed series name, merging extra labels with the
// base name's own: series("f{a=\"1\"}", "_bucket", `le="2"`) ->
// `f_bucket{a="1",le="2"}`.
func series(name, suffix, extra string) string {
	family, labels := splitSeries(name)
	switch {
	case labels == "" && extra == "":
		return family + suffix
	case labels == "":
		return family + suffix + "{" + extra + "}"
	case extra == "":
		return family + suffix + "{" + labels + "}"
	}
	return family + suffix + "{" + labels + "," + extra + "}"
}

// writeFamily emits the TYPE comment for a series' family once per
// export (labeled variants of one family share a single comment).
func writeFamily(w io.Writer, seen map[string]bool, name, suffix, kind string) error {
	family, _ := splitSeries(name)
	family += suffix
	if seen[family] {
		return nil
	}
	seen[family] = true
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, kind)
	return err
}

// WritePrometheus renders the snapshot's counters, gauges and histograms
// in the Prometheus text exposition format (version 0.0.4): one TYPE
// comment per family, cumulative le-labelled buckets plus _sum and
// _count for histograms. Metric names built with LabelSeries render as
// labeled series under their family's single TYPE comment, label values
// are escaped per the format, non-finite floats are spelled +Inf/-Inf/
// NaN, and the +Inf bucket is always emitted — even for a histogram
// snapshot whose Counts slice is short (e.g. one that crossed a JSON
// round-trip). Span records are not exported here — they are trace
// data, available via WriteJSON and the Gantt renderer.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	seen := make(map[string]bool)
	for _, name := range sortedKeys(s.Counters) {
		if err := writeFamily(w, seen, name, "", "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if err := writeFamily(w, seen, name, "", "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		if err := writeFamily(w, seen, name, "", "histogram"); err != nil {
			return err
		}
		cum := int64(0)
		for i, bound := range h.Bounds {
			if i < len(h.Counts) {
				cum += h.Counts[i]
			}
			le := `le="` + EscapeLabelValue(promFloat(bound)) + `"`
			if _, err := fmt.Fprintf(w, "%s %d\n", series(name, "_bucket", le), cum); err != nil {
				return err
			}
		}
		// The +Inf bucket is mandatory and must equal _count; fold in
		// whatever counts remain beyond the explicit bounds.
		for i := len(h.Bounds); i < len(h.Counts); i++ {
			cum += h.Counts[i]
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", series(name, "_bucket", `le="+Inf"`), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n%s %d\n",
			series(name, "_sum", ""), promFloat(h.Sum),
			series(name, "_count", ""), h.Count); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the full snapshot — metrics and span records — as an
// indented JSON document.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
