package objectstore

import (
	"errors"
	"testing"

	"astra/internal/flight"
	"astra/internal/simtime"
	"astra/internal/telemetry"
)

// TestStoreBooksOneRowPerOp pins how each request class is booked: one
// request moves exactly its own Metrics field (store-wide and in its own
// bucket), its own astra_store_* counter and the byte counters it
// transfers, and emits exactly one flight event of its own kind. A
// faulted request books none of them; it leaves only the chaos event.
func TestStoreBooksOneRowPerOp(t *testing.T) {
	const size = 3 << 10
	cases := []struct {
		op      Op
		do      func(p *simtime.Proc, s *Store) error
		want    Metrics
		counter string
		kind    flight.Kind
		key     string // the flight event's Key
		bytes   int64  // the flight event's Bytes
	}{
		{OpGet, func(p *simtime.Proc, s *Store) error { _, err := s.Get(p, "b", "k"); return err },
			Metrics{Gets: 1, BytesOut: size}, telemetry.MStoreGets, flight.KindStoreGet, "k", size},
		{OpPut, func(p *simtime.Proc, s *Store) error { return s.PutProfiled(p, "b", "n", size) },
			Metrics{Puts: 1, BytesIn: size}, telemetry.MStorePuts, flight.KindStorePut, "n", size},
		{OpList, func(p *simtime.Proc, s *Store) error { _, err := s.List(p, "b", "k"); return err },
			Metrics{Lists: 1}, telemetry.MStoreLists, flight.KindStoreList, "k", 0},
		{OpHead, func(p *simtime.Proc, s *Store) error { _, err := s.Head(p, "b", "k"); return err },
			Metrics{Heads: 1}, telemetry.MStoreHeads, flight.KindStoreHead, "k", 0},
		{OpDelete, func(p *simtime.Proc, s *Store) error { return s.Delete(p, "b", "k") },
			Metrics{Deletes: 1}, telemetry.MStoreDeletes, flight.KindStoreDelete, "k", 0},
		{OpCopy, func(p *simtime.Proc, s *Store) error { return s.Copy(p, "b", "k", "c") },
			Metrics{Copies: 1}, telemetry.MStoreCopies, flight.KindStoreCopy, "c", size},
	}
	counters := []string{
		telemetry.MStoreGets, telemetry.MStorePuts, telemetry.MStoreLists,
		telemetry.MStoreHeads, telemetry.MStoreDeletes, telemetry.MStoreCopies,
		telemetry.MStoreBytesIn, telemetry.MStoreBytesOut,
	}
	boom := errors.New("injected")
	for _, tc := range cases {
		for _, faulted := range []bool{false, true} {
			name := tc.op.String()
			if faulted {
				name += "/faulted"
			}
			t.Run(name, func(t *testing.T) {
				sched := simtime.NewScheduler()
				s := newTestStore(sched)
				tel := telemetry.New()
				rec := flight.New()
				s.SetTelemetry(tel)
				s.SetFlightRecorder(rec)
				s.SeedProfiled("b", "k", size)
				s.CreateBucket("other")
				if faulted {
					s.SetInjector(opFault(func(op Op, _, _ string) error {
						if op == tc.op {
							return boom
						}
						return nil
					}))
				}
				var err error
				if rerr := sched.Run(func(p *simtime.Proc) { err = tc.do(p, s) }); rerr != nil {
					t.Fatal(rerr)
				}
				want := tc.want
				if faulted {
					want = Metrics{}
					if !errors.Is(err, boom) {
						t.Fatalf("err = %v, want the injected fault", err)
					}
				} else if err != nil {
					t.Fatal(err)
				}
				if got := s.Metrics(); got != want {
					t.Errorf("store metrics = %+v, want %+v", got, want)
				}
				if got := s.BucketMetrics("b"); got != want {
					t.Errorf("bucket metrics = %+v, want %+v", got, want)
				}
				if got := s.BucketMetrics("other"); got != (Metrics{}) {
					t.Errorf("untouched bucket metrics = %+v", got)
				}
				for _, c := range counters {
					var wantN int64
					switch c {
					case tc.counter:
						wantN = want.Gets + want.Puts + want.Lists + want.Heads + want.Deletes + want.Copies
					case telemetry.MStoreBytesIn:
						wantN = want.BytesIn
					case telemetry.MStoreBytesOut:
						wantN = want.BytesOut
					}
					if got := tel.Counter(c).Value(); got != wantN {
						t.Errorf("%s = %d, want %d", c, got, wantN)
					}
				}
				evs := rec.Events()
				if len(evs) != 1 {
					t.Fatalf("%d flight events, want 1: %+v", len(evs), evs)
				}
				ev := evs[0]
				if faulted {
					if ev.Kind != flight.KindChaosFault || ev.Name != tc.op.String() {
						t.Fatalf("faulted request event = %+v, want one %s chaos fault", ev, tc.op)
					}
					return
				}
				if ev.Kind != tc.kind || ev.Bucket != "b" || ev.Key != tc.key || ev.Bytes != tc.bytes {
					t.Fatalf("event = %+v, want kind %s key %q bytes %d", ev, tc.kind, tc.key, tc.bytes)
				}
			})
		}
	}
}
