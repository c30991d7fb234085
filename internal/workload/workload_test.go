package workload

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"astra/internal/objectstore"
	"astra/internal/pricing"
	"astra/internal/simtime"
)

func TestBuiltinProfilesValidate(t *testing.T) {
	for _, pf := range []Profile{WordCount, Sort, Query, SparkWordCount, SparkSQL} {
		if err := pf.Validate(); err != nil {
			t.Errorf("%s: %v", pf.Name, err)
		}
	}
}

func TestProfileValidateRejectsBad(t *testing.T) {
	bad := []Profile{
		{},
		{Name: "x"},
		{Name: "x", USecPerMB: 1},
		{Name: "x", USecPerMB: 1, MapOutputRatio: 1},
		{Name: "x", USecPerMB: 1, MapOutputRatio: 1, ReduceOutputRatio: 1, CoordSecPerObject: -1},
	}
	for i, pf := range bad {
		if err := pf.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestByName(t *testing.T) {
	pf, err := ByName("sort")
	if err != nil || pf.Name != "sort" {
		t.Fatalf("ByName(sort) = %v, %v", pf, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown profile")
	}
}

func TestPaperJobSizes(t *testing.T) {
	cases := []struct {
		job     Job
		wantGB  float64
		wantTol float64
	}{
		{WordCount1GB(), 1, 0.01},
		{WordCount10GB(), 10, 0.01},
		{WordCount20GB(), 20, 0.01},
		{Sort100GB(), 97.656, 0.01}, // 200 x 500 MiB = 97.656 GiB ~ "100 GB"
		{Query25GB(), 25.4, 0.01},
	}
	for _, c := range cases {
		gotGB := float64(c.job.TotalBytes()) / (1 << 30)
		if gotGB < c.wantGB-c.wantTol || gotGB > c.wantGB+c.wantTol {
			t.Errorf("%s: total = %.3f GiB, want ~%.3f", c.job.Profile.Name, gotGB, c.wantGB)
		}
	}
}

func TestQueryHas202Objects(t *testing.T) {
	if n := Query25GB().NumObjects; n != 202 {
		t.Fatalf("Query objects = %d, want the paper's 202", n)
	}
	if n := Sort100GB().NumObjects; n != 200 {
		t.Fatalf("Sort objects = %d, want the paper's 200", n)
	}
}

func TestJobValidate(t *testing.T) {
	good := WordCount1GB()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.NumObjects = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero objects should be invalid")
	}
	bad = good
	bad.ObjectSize = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero size should be invalid")
	}
}

func TestCorpusTextDeterministicAndSized(t *testing.T) {
	a := CorpusText(42, 1000)
	b := CorpusText(42, 1000)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed must give same bytes")
	}
	if len(a) != 1000 {
		t.Fatalf("len = %d, want 1000", len(a))
	}
	c := CorpusText(43, 1000)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds should differ")
	}
	// Must be tokenizable words from the vocabulary.
	for _, w := range strings.Fields(string(a[:500])) {
		found := false
		for _, v := range corpusWords {
			if w == v {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("unexpected token %q", w)
		}
	}
}

func TestSortRecordsFormat(t *testing.T) {
	data := SortRecords(7, 1000)
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) != 10 {
		t.Fatalf("%d records, want 10", len(lines))
	}
	for _, ln := range lines {
		if len(ln) != SortRecordSize-1 { // newline stripped
			t.Fatalf("record length = %d", len(ln))
		}
	}
	// Minimum one record even for tiny sizes.
	if len(SortRecords(7, 5)) != SortRecordSize {
		t.Fatal("tiny size should yield one record")
	}
}

func TestUserVisitsSchema(t *testing.T) {
	data := UserVisitsRows(1, 2000)
	lines := bytes.Split(data, []byte("\n"))
	if len(lines) < 2 {
		t.Fatal("expected multiple rows")
	}
	fields := strings.Split(string(lines[0]), ",")
	// sourceIP, visitDate, adRevenue, userAgent, countryCode,
	// languageCode, searchWord, duration
	if len(fields) != 8 {
		t.Fatalf("%d fields, want 8: %q", len(fields), lines[0])
	}
	if !strings.Contains(fields[1], "-") {
		t.Fatalf("visitDate = %q", fields[1])
	}
}

func TestGeneratorDeterminismProperty(t *testing.T) {
	f := func(seed int64, sz uint16) bool {
		size := int(sz)%4096 + 1
		for _, gen := range []Generator{CorpusText, SortRecords, UserVisitsRows} {
			if !bytes.Equal(gen(seed, size), gen(seed, size)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorFor(t *testing.T) {
	for _, pf := range []Profile{WordCount, Sort, Query, SparkWordCount, SparkSQL} {
		if _, err := GeneratorFor(pf); err != nil {
			t.Errorf("%s: %v", pf.Name, err)
		}
	}
	if _, err := GeneratorFor(Profile{Name: "zzz"}); err == nil {
		t.Fatal("unknown profile should error")
	}
}

func TestSeedConcreteAndProfiled(t *testing.T) {
	sched := simtime.NewScheduler()
	store := objectstore.New(sched, objectstore.Config{Bandwidth: 1 << 30, Pricing: pricing.AWS().Store})
	job := Job{Profile: WordCount, NumObjects: 5, ObjectSize: 1024}
	keys, err := SeedConcrete(store, "in", job, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 5 {
		t.Fatalf("keys = %v", keys)
	}

	big := Sort100GB()
	keys2, err := SeedProfiled(store, "big", big)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys2) != 200 {
		t.Fatalf("profiled keys = %d", len(keys2))
	}
	// Seeding is free: no requests metered.
	if m := store.Metrics(); m.Puts != 0 {
		t.Fatalf("seeding metered %d puts", m.Puts)
	}

	// Each bucket holds exactly its seeded objects and bytes.
	stored := func(p *simtime.Proc, bucket string) (n int, bytes int64) {
		listed, err := store.List(p, bucket, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range listed {
			obj, err := store.Head(p, bucket, k)
			if err != nil {
				t.Fatal(err)
			}
			bytes += obj.Size
		}
		return len(listed), bytes
	}
	if err := sched.Run(func(p *simtime.Proc) {
		if n, b := stored(p, "in"); n != 5 || b != 5*1024 {
			t.Errorf("in: %d objects, %d bytes, want 5 and %d", n, b, 5*1024)
		}
		if n, b := stored(p, "big"); n != 200 || b != big.TotalBytes() {
			t.Errorf("big: %d objects, %d bytes, want 200 and %d", n, b, big.TotalBytes())
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSeedRejectsInvalidJob(t *testing.T) {
	sched := simtime.NewScheduler()
	store := objectstore.New(sched, objectstore.Config{Bandwidth: 1, Pricing: pricing.AWS().Store})
	if _, err := SeedConcrete(store, "b", Job{Profile: WordCount}, 0); err == nil {
		t.Fatal("expected validation error")
	}
	if _, err := SeedProfiled(store, "b", Job{Profile: Profile{Name: "zzz", USecPerMB: 1, MapOutputRatio: 1, ReduceOutputRatio: 1}, NumObjects: 1, ObjectSize: 1}); err != nil {
		t.Fatal("profiled seeding should not need a generator:", err)
	}
}

func TestInputKeyStable(t *testing.T) {
	if InputKey(3) != "input/part-00003" {
		t.Fatalf("InputKey(3) = %q", InputKey(3))
	}
}
