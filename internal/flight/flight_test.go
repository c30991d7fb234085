package flight

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"astra/internal/simtime"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Emit(Event{Kind: KindCompute})
	r.Op(nil, KindStoreGet, "b", "k", 1, 0, 1)
	r.Interval(nil, KindCompute, 0, 1)
	r.SetScope(nil, 1)
	r.ClearScope(nil)
	if r.NextInvocation() != 0 || r.InvocationOf(nil) != 0 {
		t.Fatal("nil recorder should hand out zero identities")
	}
	if r.Seq() != 0 || r.Len() != 0 || r.Events() != nil {
		t.Fatal("nil recorder should report empty state")
	}
	if r.EventsSince(0) != nil {
		t.Fatal("nil recorder EventsSince should be nil")
	}
}

func TestRingCapacityAndDrops(t *testing.T) {
	r := NewWithCapacity(4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Kind: KindCompute, Time: simtime.Time(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	// The six overwritten events show as the gap before the first
	// retained Seq.
	if since := r.EventsSince(0); len(since) != 4 || since[0].Seq != 7 {
		t.Fatalf("EventsSince(0) = %+v, want 4 events from seq 7", since)
	}
	evs := r.Events()
	for i, ev := range evs {
		if want := int64(7 + i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (oldest overwritten first)", i, ev.Seq, want)
		}
	}
	if r.Seq() != 10 {
		t.Fatalf("Seq = %d, want 10", r.Seq())
	}
}

func TestEventsSince(t *testing.T) {
	r := New()
	for i := 0; i < 5; i++ {
		r.Emit(Event{Kind: KindCompute})
	}
	if got := len(r.EventsSince(3)); got != 2 {
		t.Fatalf("EventsSince(3) returned %d events, want 2", got)
	}
	if got := r.EventsSince(5); got != nil {
		t.Fatalf("EventsSince(latest) = %v, want nil", got)
	}
	if got := len(r.EventsSince(0)); got != 5 {
		t.Fatalf("EventsSince(0) returned %d events, want 5", got)
	}
}

// TestEventsSinceViewIsNeverWritten: before the ring wraps EventsSince
// hands out a view of the recording, not a copy. Later emits, including
// the wrap that overwrites the view's slots, change neither the view nor
// what the caller appended to it, and the append changes no recorded event.
func TestEventsSinceViewIsNeverWritten(t *testing.T) {
	r := NewWithCapacity(8)
	r.Reserve(8) // one array for the ring's whole life: the wrap reuses it
	for i := 0; i < 3; i++ {
		r.Emit(Event{Kind: KindCompute})
	}
	view := r.EventsSince(1)
	grown := append(view, Event{Kind: KindPhase})
	for i := 0; i < 10; i++ {
		r.Emit(Event{Kind: KindCompute})
	}
	if len(view) != 2 || view[0].Seq != 2 || view[1].Seq != 3 {
		t.Fatalf("view changed under later emits: %+v", view)
	}
	if grown[2].Kind != KindPhase {
		t.Fatalf("an event appended to the view was overwritten by %s", grown[2].Kind)
	}
	for i, ev := range r.Events() {
		if want := int64(6 + i); ev.Seq != want || ev.Kind != KindCompute {
			t.Fatalf("event %d = seq %d %s, want seq %d compute", i, ev.Seq, ev.Kind, want)
		}
	}
}

// TestReserveSizesTheRingOnce: after Reserve(n), n emits never grow the
// ring, and Reserve never sizes it past its capacity.
func TestReserveSizesTheRingOnce(t *testing.T) {
	r := NewWithCapacity(64)
	r.Emit(Event{Kind: KindCompute})
	r.Reserve(20)
	before := cap(r.buf)
	for i := 0; i < 20; i++ {
		r.Emit(Event{Kind: KindCompute})
	}
	if before != 21 || cap(r.buf) != before {
		t.Fatalf("ring capacity %d after Reserve, %d after 20 emits, want 21 both", before, cap(r.buf))
	}
	r.Reserve(1000)
	if cap(r.buf) != 64 {
		t.Fatalf("Reserve(1000) sized the ring to %d, want its capacity 64", cap(r.buf))
	}
	var nilRec *Recorder
	nilRec.Reserve(10)
}

// TestSinceOnAWrappedRing: for every cut point — below the retained
// window, inside either run of the ring, at and past the newest event —
// EventsSince and VisitSince hand back exactly the retained events with
// Seq > after, in order, and EventsSince copies no more than that.
func TestSinceOnAWrappedRing(t *testing.T) {
	for _, emitted := range []int{0, 3, 8, 13, 16, 21} {
		r := NewWithCapacity(8)
		for i := 0; i < emitted; i++ {
			r.Emit(Event{Kind: KindCompute})
		}
		all := r.Events()
		for after := int64(-1); after <= int64(emitted)+1; after++ {
			var want []int64
			for _, ev := range all {
				if ev.Seq > after {
					want = append(want, ev.Seq)
				}
			}
			var visited []int64
			r.VisitSince(after, func(ev *Event) { visited = append(visited, ev.Seq) })
			got := r.EventsSince(after)
			if len(want) == 0 && got != nil {
				t.Fatalf("%d emitted: EventsSince(%d) = %v, want nil", emitted, after, got)
			}
			if cap(got) != len(want) {
				t.Fatalf("%d emitted: EventsSince(%d) allocated %d slots for %d events", emitted, after, cap(got), len(want))
			}
			copied := make([]int64, len(got))
			for i := range got {
				copied[i] = got[i].Seq
			}
			if !reflect.DeepEqual(copied, append([]int64{}, want...)) || !reflect.DeepEqual(visited, want) {
				t.Fatalf("%d emitted, after %d: copied %v, visited %v, want %v", emitted, after, copied, visited, want)
			}
		}
	}
}

// TestSinceUnderConcurrentEmit: readers cutting the ring while writers
// rotate it see only whole, in-order tails (and the race detector sees
// every access locked).
func TestSinceUnderConcurrentEmit(t *testing.T) {
	r := NewWithCapacity(64)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				r.Emit(Event{Kind: KindCompute})
			}
		}()
	}
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(visit bool) {
			defer readers.Done()
			var last int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				check := func(ev *Event) {
					if ev.Seq <= last {
						t.Errorf("event %d handed out after %d", ev.Seq, last)
					}
					last = ev.Seq
				}
				if visit {
					r.VisitSince(last, check)
				} else {
					evs := r.EventsSince(last)
					for i := range evs {
						check(&evs[i])
					}
				}
				runtime.Gosched()
			}
		}(g == 0)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if r.Seq() != 4000 {
		t.Fatalf("Seq = %d, want 4000", r.Seq())
	}
}

func TestScopeAttribution(t *testing.T) {
	r := New()
	sched := simtime.NewScheduler()
	err := sched.Run(func(p *simtime.Proc) {
		inv := r.NextInvocation()
		r.SetScope(p, inv)
		if got := r.InvocationOf(p); got != inv {
			t.Errorf("InvocationOf = %d, want %d", got, inv)
		}
		r.Op(p, KindStoreGet, "b", "k", 42, p.Now(), p.Now())
		r.ClearScope(p)
		if got := r.InvocationOf(p); got != 0 {
			t.Errorf("InvocationOf after clear = %d, want 0", got)
		}
		r.Interval(p, KindCompute, 0, p.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Inv != 1 || evs[0].Bytes != 42 {
		t.Fatalf("store event not attributed: %+v", evs[0])
	}
	if evs[1].Inv != 0 {
		t.Fatalf("post-clear event should attribute to the driver: %+v", evs[1])
	}
}

func TestWriteJSONLDeterministic(t *testing.T) {
	evs := []Event{
		{Seq: 1, Kind: KindInvokeScheduled, Time: 5, Inv: 1, Function: "f", Label: "map-0"},
		{Seq: 2, Kind: KindStorePut, Time: 9, Start: 5, Inv: 1, Bucket: "b", Key: "k", Bytes: 7},
		{Seq: 3, Kind: KindPhase, Time: 10, Name: "run"},
	}
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, evs); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, evs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two JSONL exports of the same stream differ")
	}
	lines := strings.Split(strings.TrimSuffix(a.String(), "\n"), "\n")
	if len(lines) != len(evs) {
		t.Fatalf("%d lines for %d events", len(lines), len(evs))
	}
	for _, line := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %q is not a JSON event: %v", line, err)
		}
	}
	// Round trip: the decoded events must equal the originals.
	var got Event
	if err := json.Unmarshal([]byte(lines[1]), &got); err != nil {
		t.Fatal(err)
	}
	if got != evs[1] {
		t.Fatalf("round trip mismatch: %+v != %+v", got, evs[1])
	}
}

func TestWriteOTLPSpanTree(t *testing.T) {
	evs := []Event{
		{Seq: 1, Kind: KindInvokeScheduled, Time: 0, Inv: 1, Function: "f", Label: "map-0"},
		{Seq: 2, Kind: KindInvokeRunning, Time: 1, Inv: 1, Function: "f", Label: "map-0", MemoryMB: 512},
		{Seq: 3, Kind: KindStoreGet, Time: 3, Start: 1, Inv: 1, Bucket: "b", Key: "k", Bytes: 9},
		{Seq: 4, Kind: KindInvokeDone, Time: 4, Start: 1, Inv: 1, Rec: 1, Function: "f", Label: "map-0", MemoryMB: 512},
		{Seq: 5, Kind: KindPhase, Time: 4, Start: 0, Name: "map"},
		{Seq: 6, Kind: KindPhase, Time: 6, Start: 0, Name: "run"},
	}
	var buf bytes.Buffer
	if err := WriteOTLP(&buf, evs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					TraceID      string `json:"traceId"`
					SpanID       string `json:"spanId"`
					ParentSpanID string `json:"parentSpanId"`
					Name         string `json:"name"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("OTLP export is not valid JSON: %v", err)
	}
	if len(doc.ResourceSpans) != 1 || len(doc.ResourceSpans[0].ScopeSpans) != 1 {
		t.Fatalf("unexpected OTLP shape: %s", buf.String())
	}
	spans := doc.ResourceSpans[0].ScopeSpans[0].Spans
	byName := map[string]struct{ id, parent string }{}
	for _, sp := range spans {
		if sp.TraceID == "" || sp.SpanID == "" {
			t.Fatalf("span %q missing identity", sp.Name)
		}
		byName[sp.Name] = struct{ id, parent string }{sp.SpanID, sp.ParentSpanID}
	}
	run, ok := byName["run"]
	if !ok || run.parent != "" {
		t.Fatalf("run span must exist and be the root: %+v", byName)
	}
	mapPhase, ok := byName["map"]
	if !ok || mapPhase.parent != run.id {
		t.Fatalf("map phase must parent to run: %+v", byName)
	}
	inv, ok := byName["map-0"]
	if !ok || inv.parent != mapPhase.id {
		t.Fatalf("invocation must parent to its phase: %+v", byName)
	}
	if st, ok := byName["store.get"]; !ok || st.parent != inv.id {
		t.Fatalf("store op must parent to its invocation: %+v", byName)
	}
	if sch, ok := byName["map-0 invoke.scheduled"]; !ok || sch.parent != inv.id {
		t.Fatalf("lifecycle transition must parent to its invocation: %+v", byName)
	}
}

func TestAnalyzeNoEvents(t *testing.T) {
	if _, err := Analyze(nil); !errors.Is(err, ErrNoEvents) {
		t.Fatalf("Analyze(nil) error = %v, want ErrNoEvents", err)
	}
}

func TestBuildAuditMeasurementOnly(t *testing.T) {
	path := &CriticalPath{JCT: 10 * time.Second, Stages: []Stage{{Name: "map", Duration: 10 * time.Second}}}
	a := BuildAudit(path, nil, 1)
	if a.Predicted != nil || len(a.Terms) != 0 {
		t.Fatalf("measurement-only audit should carry no prediction terms: %+v", a)
	}
	if a.JCTMeasured != 10*time.Second || a.CostMeasured != 1 {
		t.Fatalf("audit headline wrong: %+v", a)
	}
	if !strings.Contains(a.Render(), "critical path") {
		t.Fatal("Render must include the critical path section")
	}
	// Publish on a nil registry must be a no-op, not a panic.
	a.Publish(nil)
}

func TestStageGaugeName(t *testing.T) {
	if got := StageGauge("step-01"); got != "astra_audit_stage_abs_error_ns_step_01" {
		t.Fatalf("StageGauge = %q", got)
	}
}

// TestVisitSinceHoldsTheLock states the contract VisitSince's callers
// build on: fn runs with the recorder locked. An Emit from another
// goroutine waits for the visit to finish and lands after it; an Emit
// from fn itself would wait on its own goroutine, which is why fn must
// not call the recorder (qos.TestFoldNeverCallsTheRecorder holds the one
// caller to that).
func TestVisitSinceHoldsTheLock(t *testing.T) {
	r := New()
	r.Emit(Event{Kind: KindCompute})
	emitted := make(chan struct{})
	visited := 0
	r.VisitSince(0, func(ev *Event) {
		visited++
		go func() {
			r.Emit(Event{Kind: KindStoreGet})
			close(emitted)
		}()
		select {
		case <-emitted:
			t.Error("an Emit completed while a visit held the recorder")
		case <-time.After(20 * time.Millisecond):
		}
	})
	<-emitted
	if visited != 1 || r.Seq() != 2 {
		t.Fatalf("visited %d events, seq %d; want 1 visited and the blocked Emit at seq 2", visited, r.Seq())
	}
}
