package objectstore

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"astra/internal/pricing"
	"astra/internal/simtime"
)

func newTestStore(sched *simtime.Scheduler) *Store {
	return New(sched, Config{
		Bandwidth: 1 << 20, // 1 MiB/s, so times are easy to reason about
		Pricing:   pricing.AWS().Store,
	})
}

func run(t *testing.T, body func(p *simtime.Proc, s *Store)) (time.Duration, *Store) {
	t.Helper()
	sched := simtime.NewScheduler()
	store := newTestStore(sched)
	if err := sched.Run(func(p *simtime.Proc) { body(p, store) }); err != nil {
		t.Fatal(err)
	}
	return sched.Now(), store
}

func TestPutGetRoundTrip(t *testing.T) {
	payload := []byte("hello astra")
	elapsed, store := run(t, func(p *simtime.Proc, s *Store) {
		s.CreateBucket("b")
		if err := s.Put(p, "b", "k", payload); err != nil {
			t.Fatal(err)
		}
		obj, err := s.Get(p, "b", "k")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(obj.Data, payload) {
			t.Fatalf("Data = %q, want %q", obj.Data, payload)
		}
		if obj.Size != int64(len(payload)) {
			t.Fatalf("Size = %d, want %d", obj.Size, len(payload))
		}
	})
	// 11 bytes up + 11 bytes down at 1 MiB/s.
	want := time.Duration(float64(2*len(payload)) / (1 << 20) * float64(time.Second))
	if diff := elapsed - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("elapsed = %v, want ~%v", elapsed, want)
	}
	m := store.Metrics()
	if m.Puts != 1 || m.Gets != 1 {
		t.Fatalf("metrics = %+v, want 1 put + 1 get", m)
	}
}

func TestTransferTimeMatchesBandwidthModel(t *testing.T) {
	// 4 MiB at 1 MiB/s must take exactly 4 virtual seconds (size/B).
	elapsed, _ := run(t, func(p *simtime.Proc, s *Store) {
		s.CreateBucket("b")
		if err := s.PutProfiled(p, "b", "big", 4<<20); err != nil {
			t.Fatal(err)
		}
	})
	if diff := elapsed - 4*time.Second; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("elapsed = %v, want ~4s", elapsed)
	}
}

func TestGetMissingKey(t *testing.T) {
	run(t, func(p *simtime.Proc, s *Store) {
		s.CreateBucket("b")
		_, err := s.Get(p, "b", "nope")
		if !errors.Is(err, ErrNoSuchKey) {
			t.Fatalf("err = %v, want ErrNoSuchKey", err)
		}
		_, err = s.Get(p, "nobucket", "k")
		if !errors.Is(err, ErrNoSuchBucket) {
			t.Fatalf("err = %v, want ErrNoSuchBucket", err)
		}
	})
}

func TestListPrefixAndOrder(t *testing.T) {
	run(t, func(p *simtime.Proc, s *Store) {
		s.Seed("b", "map/2", nil)
		s.Seed("b", "map/10", nil)
		s.Seed("b", "map/1", nil)
		s.Seed("b", "red/1", nil)
		keys, err := s.List(p, "b", "map/")
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"map/1", "map/10", "map/2"} // lexicographic
		if len(keys) != len(want) {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
		for i := range want {
			if keys[i] != want[i] {
				t.Fatalf("keys = %v, want %v", keys, want)
			}
		}
	})
}

func TestHeadReturnsMetadataWithoutTransfer(t *testing.T) {
	elapsed, store := run(t, func(p *simtime.Proc, s *Store) {
		s.Seed("b", "k", make([]byte, 1<<20))
		obj, err := s.Head(p, "b", "k")
		if err != nil {
			t.Fatal(err)
		}
		if obj.Data != nil {
			t.Fatal("Head must not return the body")
		}
		if obj.Size != 1<<20 {
			t.Fatalf("Size = %d", obj.Size)
		}
	})
	if elapsed != 0 {
		t.Fatalf("Head charged %v of transfer time", elapsed)
	}
	if store.Metrics().Heads != 1 {
		t.Fatal("Head not metered")
	}
}

func TestDeleteIdempotentAndFreesStorage(t *testing.T) {
	_, store := run(t, func(p *simtime.Proc, s *Store) {
		s.Seed("b", "k", make([]byte, 100))
		if err := s.Delete(p, "b", "k"); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(p, "b", "k"); err != nil { // idempotent
			t.Fatal(err)
		}
		if _, err := s.Head(p, "b", "k"); !errors.Is(err, ErrNoSuchKey) {
			t.Fatalf("Head after delete: err = %v, want ErrNoSuchKey", err)
		}
		p.Sleep(time.Hour)
	})
	// Nothing was at rest for the hour after the delete.
	if got := store.Bill().Storage; got != 0 {
		t.Fatalf("storage bill = %v after delete, want 0", got)
	}
	if store.Metrics().Deletes != 2 {
		t.Fatalf("Deletes = %d, want 2", store.Metrics().Deletes)
	}
}

func TestOverwriteReplacesSize(t *testing.T) {
	run(t, func(p *simtime.Proc, s *Store) {
		s.Seed("b", "k", make([]byte, 100))
		if err := s.Put(p, "b", "k", make([]byte, 40)); err != nil {
			t.Fatal(err)
		}
		obj, err := s.Head(p, "b", "k")
		if err != nil {
			t.Fatal(err)
		}
		if obj.Size != 40 {
			t.Fatalf("Size = %d, want 40 after overwrite", obj.Size)
		}
	})
}

func TestByteSecondsAccounting(t *testing.T) {
	sched := simtime.NewScheduler()
	store := newTestStore(sched)
	err := sched.Run(func(p *simtime.Proc) {
		store.Seed("b", "k", make([]byte, 1000))
		p.Sleep(10 * time.Second)
		if err := store.Delete(p, "b", "k"); err != nil {
			t.Fatal(err)
		}
		p.Sleep(100 * time.Second) // nothing stored, nothing accrues
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1000 B held for 10 s is 10,000 byte-seconds, billed at the sheet's
	// storage rate.
	want := pricing.AWS().Store.StorageCost(10000)
	if got := store.Bill().Storage; got <= 0 || math.Abs(float64(got-want)) > 1e-4*float64(want) {
		t.Fatalf("Storage = %v, want %v (10,000 byte-seconds)", got, want)
	}
}

func TestBillMatchesPricing(t *testing.T) {
	sched := simtime.NewScheduler()
	store := newTestStore(sched)
	err := sched.Run(func(p *simtime.Proc) {
		store.CreateBucket("b")
		for i := 0; i < 10; i++ {
			if err := store.PutProfiled(p, "b", "k", 1); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			if _, err := store.Get(p, "b", "k"); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	bill := store.Bill()
	wantReq := pricing.AWS().Store.RequestCost(20, 10)
	if math.Abs(float64(bill.Requests-wantReq)) > 1e-12 {
		t.Fatalf("Requests = %v, want %v", bill.Requests, wantReq)
	}
	if bill.Total() != bill.Requests+bill.Storage {
		t.Fatal("Total != Requests + Storage")
	}
}

// opFault adapts a function to Injector.
type opFault func(op Op, bucket, key string) error

func (f opFault) OpFault(op Op, bucket, key string) error { return f(op, bucket, key) }

func TestFaultInjection(t *testing.T) {
	boom := errors.New("injected")
	run(t, func(p *simtime.Proc, s *Store) {
		s.Seed("b", "k", []byte("x"))
		s.SetInjector(opFault(func(op Op, bucket, key string) error {
			if op == OpGet && key == "k" {
				return boom
			}
			return nil
		}))
		if _, err := s.Get(p, "b", "k"); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want injected fault", err)
		}
		s.SetInjector(nil)
		if _, err := s.Get(p, "b", "k"); err != nil {
			t.Fatalf("err = %v after clearing fault", err)
		}
	})
}

func TestFaultedRequestNotMeteredOrCharged(t *testing.T) {
	elapsed, store := run(t, func(p *simtime.Proc, s *Store) {
		s.Seed("b", "k", make([]byte, 1<<20))
		s.SetInjector(opFault(func(op Op, bucket, key string) error { return errors.New("x") }))
		_, _ = s.Get(p, "b", "k")
	})
	if elapsed != 0 {
		t.Fatalf("faulted GET charged %v", elapsed)
	}
	if store.Metrics().Gets != 0 {
		t.Fatal("faulted GET was metered")
	}
}

func TestSharedBandwidthContention(t *testing.T) {
	sched := simtime.NewScheduler()
	store := New(sched, Config{
		SharedBandwidth: 1 << 20, // 1 MiB/s aggregate
		Pricing:         pricing.AWS().Store,
	})
	err := sched.Run(func(p *simtime.Proc) {
		store.CreateBucket("b")
		store.SeedProfiled("b", "k", 1<<20)
		// Two concurrent 1 MiB downloads over a 1 MiB/s shared link: both
		// take ~2s instead of 1s each.
		p.Parallel(2, "dl", func(q *simtime.Proc, i int) {
			if _, err := store.Get(q, "b", "k"); err != nil {
				t.Error(err)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := sched.Now() - 2*time.Second; d < -5*time.Millisecond || d > 5*time.Millisecond {
		t.Fatalf("elapsed = %v, want ~2s under processor sharing", sched.Now())
	}
}

func TestRequestLatencyCharged(t *testing.T) {
	sched := simtime.NewScheduler()
	store := New(sched, Config{
		Bandwidth:      1 << 30,
		RequestLatency: 10 * time.Millisecond,
		Pricing:        pricing.AWS().Store,
	})
	err := sched.Run(func(p *simtime.Proc) {
		store.Seed("b", "k", nil)
		if _, err := store.Get(p, "b", "k"); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Head(p, "b", "k"); err != nil {
			t.Fatal(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Now() != 20*time.Millisecond {
		t.Fatalf("elapsed = %v, want 20ms of request latency", sched.Now())
	}
}

func TestObjectTooLarge(t *testing.T) {
	sched := simtime.NewScheduler()
	store := New(sched, Config{
		Bandwidth: 1 << 30,
		Pricing:   pricing.ObjectStore{MaxObjectBytes: 1000, PerPut: 1, PerGet: 1, StoragePerGBMonth: 1},
	})
	err := sched.Run(func(p *simtime.Proc) {
		store.CreateBucket("b")
		if err := store.PutProfiled(p, "b", "k", 1001); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("err = %v, want ErrTooLarge", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestObjectCount(t *testing.T) {
	run(t, func(p *simtime.Proc, s *Store) {
		s.Seed("b", "a", nil)
		s.Seed("b", "b", nil)
		s.Seed("b", "a", nil) // overwrite, not a new object
		keys, err := s.List(p, "b", "")
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 2 {
			t.Fatalf("List = %v, want 2 objects", keys)
		}
	})
}

func TestMetricsSub(t *testing.T) {
	_, store := run(t, func(p *simtime.Proc, s *Store) {
		s.CreateBucket("b")
		before := s.Metrics()
		if err := s.PutProfiled(p, "b", "k", 10); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(p, "b", "k"); err != nil {
			t.Fatal(err)
		}
		delta := s.Metrics().Sub(before)
		if delta.Puts != 1 || delta.Gets != 1 || delta.BytesIn != 10 || delta.BytesOut != 10 {
			t.Fatalf("delta = %+v", delta)
		}
	})
	_ = store
}
