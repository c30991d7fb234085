package pricing

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b USD) bool {
	return math.Abs(float64(a-b)) < 1e-12
}

func TestAWSMemoryTiersMatchPaper(t *testing.T) {
	l := AWS().Lambda
	tiers := l.MemoryTiers()
	// The paper: 128 MB to 3008 MB in 64 MB increments -> L = 46.
	if len(tiers) != 46 {
		t.Fatalf("L = %d, want 46", len(tiers))
	}
	if tiers[0] != 128 || tiers[len(tiers)-1] != 3008 {
		t.Fatalf("tier range = [%d, %d], want [128, 3008]", tiers[0], tiers[len(tiers)-1])
	}
	for i := 1; i < len(tiers); i++ {
		if tiers[i]-tiers[i-1] != 64 {
			t.Fatalf("tier step at %d = %d, want 64", i, tiers[i]-tiers[i-1])
		}
	}
	if l.NumTiers() != 46 {
		t.Fatalf("NumTiers = %d, want 46", l.NumTiers())
	}
}

func TestValidMemory(t *testing.T) {
	l := AWS().Lambda
	cases := []struct {
		mem  int
		want bool
	}{
		{128, true}, {192, true}, {3008, true}, {1024, true},
		{127, false}, {129, false}, {3072, false}, {0, false}, {-64, false},
	}
	for _, c := range cases {
		if got := l.ValidMemory(c.mem); got != c.want {
			t.Errorf("ValidMemory(%d) = %v, want %v", c.mem, got, c.want)
		}
	}
}

func TestBilledDurationRoundsUp(t *testing.T) {
	l := AWS().Lambda
	cases := []struct{ in, want time.Duration }{
		{0, 0},
		{-time.Second, 0},
		{time.Millisecond, time.Millisecond},
		{time.Millisecond + time.Nanosecond, 2 * time.Millisecond},
		{999 * time.Microsecond, time.Millisecond},
		{time.Second, time.Second},
	}
	for _, c := range cases {
		if got := l.BilledDuration(c.in); got != c.want {
			t.Errorf("BilledDuration(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestLegacyBillingQuantum(t *testing.T) {
	l := AWSLegacyBilling().Lambda
	if got := l.BilledDuration(time.Millisecond); got != 100*time.Millisecond {
		t.Fatalf("legacy BilledDuration(1ms) = %v, want 100ms", got)
	}
}

func TestBilledDurationMonotonicProperty(t *testing.T) {
	l := AWS().Lambda
	f := func(a, b uint32) bool {
		da, db := time.Duration(a)*time.Microsecond, time.Duration(b)*time.Microsecond
		ba, bb := l.BilledDuration(da), l.BilledDuration(db)
		if da <= db && ba > bb {
			return false
		}
		return ba >= da // never undercharges
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDurationCostPaperExample(t *testing.T) {
	// 1 GB function for exactly 1 second = the GB-second price.
	l := AWS().Lambda
	if got := l.DurationCost(1024, time.Second); !almostEqual(got, 0.0000166667) {
		t.Fatalf("DurationCost(1024MB, 1s) = %v, want $0.0000166667", got)
	}
	// 128 MB for 1 s = 1/8 of that.
	if got := l.DurationCost(128, time.Second); !almostEqual(got, 0.0000166667/8) {
		t.Fatalf("DurationCost(128MB, 1s) = %v", got)
	}
}

func TestInvocationCostPaperRate(t *testing.T) {
	l := AWS().Lambda
	// $0.20 per million requests (E in Eq. 12).
	if got := l.InvocationCost(1_000_000); !almostEqual(got, 0.20) {
		t.Fatalf("InvocationCost(1M) = %v, want $0.20", got)
	}
}

func TestRequestCostPaperRates(t *testing.T) {
	s := AWS().Store
	// $0.005 per 1000 PUT (F), $0.004 per 10000 GET (G).
	if got := s.RequestCost(0, 1000); !almostEqual(got, 0.005) {
		t.Fatalf("1000 PUTs = %v, want $0.005", got)
	}
	if got := s.RequestCost(10000, 0); !almostEqual(got, 0.004) {
		t.Fatalf("10000 GETs = %v, want $0.004", got)
	}
}

func TestStorageCost(t *testing.T) {
	s := AWS().Store
	// 1 GB held for a whole month = the monthly rate.
	byteSeconds := float64(1<<30) * (30 * 24 * 3600)
	if got := s.StorageCost(byteSeconds); !almostEqual(got, 0.023) {
		t.Fatalf("1 GB-month = %v, want $0.023", got)
	}
	if got := s.StorageCost(0); got != 0 {
		t.Fatalf("zero occupancy = %v, want 0", got)
	}
}

func TestVMCostMinimumBilling(t *testing.T) {
	vm := AWS().VMs["m3.xlarge"]
	short := vm.VMCost(time.Second)
	minute := vm.VMCost(time.Minute)
	if short != minute {
		t.Fatalf("sub-minimum run billed %v, want the 1-minute minimum %v", short, minute)
	}
	hour := vm.VMCost(time.Hour)
	if !almostEqual(hour, 0.266+0.070) {
		t.Fatalf("1 hour of m3.xlarge+EMR = %v, want $0.336", hour)
	}
}

func TestAlternativeSheetsAreWellFormed(t *testing.T) {
	for _, sheet := range []*Sheet{AWS(), GCPLike(), AzureLike(), AWSLegacyBilling()} {
		l := sheet.Lambda
		if len(l.MemoryTiers()) == 0 {
			t.Errorf("%s: no memory tiers", sheet.Provider)
		}
		if l.Timeout <= 0 || l.MaxConcurrency <= 0 {
			t.Errorf("%s: bad quotas", sheet.Provider)
		}
		if l.PerGBSecond <= 0 || sheet.Store.PerPut <= 0 {
			t.Errorf("%s: non-positive prices", sheet.Provider)
		}
		for _, m := range l.MemoryTiers() {
			if !l.ValidMemory(m) {
				t.Errorf("%s: tier %d not self-valid", sheet.Provider, m)
			}
		}
	}
}

func TestPerSecondProportionalToMemory(t *testing.T) {
	l := AWS().Lambda
	r1 := l.PerSecond(1024)
	r2 := l.PerSecond(2048)
	if !almostEqual(r2, 2*r1) {
		t.Fatalf("price not proportional to memory: %v vs %v", r1, r2)
	}
}

func TestUSDString(t *testing.T) {
	if got := USD(0.005).String(); got != "$0.005000" {
		t.Fatalf("USD.String() = %q", got)
	}
}
