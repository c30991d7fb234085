package objectstore

import (
	"math"
	"testing"
	"time"

	"astra/internal/pricing"
	"astra/internal/simtime"
)

func TestCacheClassFasterTransfers(t *testing.T) {
	sched := simtime.NewScheduler()
	store := New(sched, Config{
		Bandwidth:      80 << 20,
		RequestLatency: 20 * time.Millisecond,
		Pricing:        pricing.AWS().Store,
	})
	store.CreateBucket("s3")
	store.SetBucketClass("cache", CacheClass())

	var slow, fast time.Duration
	err := sched.Run(func(p *simtime.Proc) {
		start := p.Now()
		if err := store.PutProfiled(p, "s3", "k", 80<<20); err != nil {
			t.Fatal(err)
		}
		slow = p.Now() - start
		start = p.Now()
		if err := store.PutProfiled(p, "cache", "k", 80<<20); err != nil {
			t.Fatal(err)
		}
		fast = p.Now() - start
	})
	if err != nil {
		t.Fatal(err)
	}
	// 80 MiB: ~1.02s on the default class vs ~0.1s on the cache tier.
	if fast*5 > slow {
		t.Fatalf("cache transfer %v not much faster than default %v", fast, slow)
	}
}

func TestClassRequestPricing(t *testing.T) {
	sched := simtime.NewScheduler()
	store := New(sched, Config{Bandwidth: 1 << 30, Pricing: pricing.AWS().Store})
	store.SetBucketClass("cache", CacheClass()) // zero request fees
	store.CreateBucket("s3")
	err := sched.Run(func(p *simtime.Proc) {
		for i := 0; i < 100; i++ {
			if err := store.PutProfiled(p, "cache", "k", 1); err != nil {
				t.Fatal(err)
			}
			if _, err := store.Get(p, "cache", "k"); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.PutProfiled(p, "s3", "k", 1); err != nil {
			t.Fatal(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	bill := store.Bill()
	wantReq := pricing.AWS().Store.RequestCost(0, 1) // only the s3 PUT bills
	if math.Abs(float64(bill.Requests-wantReq)) > 1e-12 {
		t.Fatalf("requests = %v, want %v (cache requests are free)", bill.Requests, wantReq)
	}
}

func TestClassProvisionedStoragePricing(t *testing.T) {
	sched := simtime.NewScheduler()
	store := New(sched, Config{Bandwidth: 1 << 40, Pricing: pricing.AWS().Store})
	cache := CacheClass()
	store.SetBucketClass("cache", cache)
	err := sched.Run(func(p *simtime.Proc) {
		store.SeedProfiled("cache", "k", 1<<30) // 1 GiB
		p.Sleep(time.Hour)                      // held one hour
		if err := store.Delete(p, "cache", "k"); err != nil {
			t.Fatal(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	bill := store.Bill()
	// 1 GiB x 1 hour at the GB-hour rate.
	want := float64(cache.StoragePerGBHour)
	if math.Abs(float64(bill.Storage)-want) > want*1e-6 {
		t.Fatalf("storage = %v, want ~%v", bill.Storage, want)
	}
}

func TestCacheStorageCostsMoreThanS3(t *testing.T) {
	// The Locus tradeoff: the cache tier is far more expensive at rest.
	def := pricing.AWS().Store
	byteSeconds := float64(int64(10)<<30) * 3600 // 10 GiB-hours
	cache := CacheClass().storageCost(byteSeconds, def)
	s3 := def.StorageCost(byteSeconds)
	if cache < s3*100 {
		t.Fatalf("cache storage %v should dwarf S3 %v", cache, s3)
	}
}

func TestBucketMetricsScoped(t *testing.T) {
	sched := simtime.NewScheduler()
	store := New(sched, Config{Bandwidth: 1 << 30, Pricing: pricing.AWS().Store})
	store.CreateBucket("a")
	store.CreateBucket("b")
	err := sched.Run(func(p *simtime.Proc) {
		if err := store.PutProfiled(p, "a", "k", 5); err != nil {
			t.Fatal(err)
		}
		if err := store.PutProfiled(p, "b", "k", 7); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Get(p, "b", "k"); err != nil {
			t.Fatal(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := store.BucketMetrics("a"); m.Puts != 1 || m.Gets != 0 {
		t.Fatalf("a metrics = %+v", m)
	}
	if m := store.BucketMetrics("b"); m.Puts != 1 || m.Gets != 1 || m.BytesOut != 7 {
		t.Fatalf("b metrics = %+v", m)
	}
	if m := store.BucketMetrics("missing"); m != (Metrics{}) {
		t.Fatalf("missing bucket metrics = %+v", m)
	}
	if g := store.Metrics(); g.Puts != 2 || g.Gets != 1 {
		t.Fatalf("global metrics = %+v", g)
	}
}

func TestClassLatencyOverride(t *testing.T) {
	sched := simtime.NewScheduler()
	store := New(sched, Config{
		Bandwidth:      1 << 40,
		RequestLatency: 50 * time.Millisecond,
		Pricing:        pricing.AWS().Store,
	})
	store.SetBucketClass("cache", CacheClass()) // 0.5 ms latency
	var elapsed time.Duration
	err := sched.Run(func(p *simtime.Proc) {
		start := p.Now()
		if err := store.PutProfiled(p, "cache", "k", 0); err != nil {
			t.Fatal(err)
		}
		elapsed = p.Now() - start
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed != 500*time.Microsecond {
		t.Fatalf("cache latency = %v, want 0.5ms", elapsed)
	}
}
