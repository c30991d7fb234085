package api

import (
	"errors"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"astra/internal/optimizer"
)

func validPlan() PlanRequest {
	return PlanRequest{
		Workload:    "wordcount",
		NumObjects:  10,
		ObjectBytes: 1 << 20,
		Objective:   ObjectiveSpec{Goal: "min_time", BudgetUSD: 1},
	}
}

func TestPlanRequestResolve(t *testing.T) {
	req := validPlan()
	job, obj, solver, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if job.Profile.Name != "wordcount" || job.NumObjects != 10 || job.ObjectSize != 1<<20 {
		t.Fatalf("job = %+v", job)
	}
	if obj.Goal != optimizer.MinTimeUnderBudget || solver != optimizer.Auto {
		t.Fatalf("obj %+v solver %v", obj, solver)
	}

	// total_bytes splits evenly across objects.
	req = validPlan()
	req.ObjectBytes = 0
	req.TotalBytes = 100 << 20
	job, _, _, err = req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if job.ObjectSize != 10<<20 {
		t.Fatalf("object size = %d, want %d", job.ObjectSize, 10<<20)
	}
}

func TestPlanRequestResolveRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*PlanRequest)
	}{
		{"unknown workload", func(r *PlanRequest) { r.Workload = "nope" }},
		{"zero objects", func(r *PlanRequest) { r.NumObjects = 0 }},
		{"both sizes", func(r *PlanRequest) { r.TotalBytes = 1 << 20 }},
		{"no size", func(r *PlanRequest) { r.ObjectBytes = 0 }},
		{"bad goal", func(r *PlanRequest) { r.Objective.Goal = "fastest" }},
		{"min_time with deadline", func(r *PlanRequest) { r.Objective.Deadline = "10s" }},
		{"bad solver", func(r *PlanRequest) { r.Solver = "quantum" }},
	}
	for _, tc := range cases {
		req := validPlan()
		tc.mutate(&req)
		if _, _, _, err := req.Resolve(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", tc.name, err)
		}
	}
}

func TestObjectiveSpecMinCost(t *testing.T) {
	obj, err := ObjectiveSpec{Goal: "min_cost", Deadline: "90s"}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if obj.Goal != optimizer.MinCostUnderDeadline || obj.Deadline != 90*time.Second {
		t.Fatalf("obj = %+v", obj)
	}
	if _, err := (ObjectiveSpec{Goal: "min_cost", Deadline: "soon"}).Resolve(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bad deadline err = %v", err)
	}
	if _, err := (ObjectiveSpec{Goal: "min_cost", Deadline: "90s", BudgetUSD: 1}).Resolve(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("mixed constraint err = %v", err)
	}
}

func TestDecodeStrict(t *testing.T) {
	if _, err := DecodePlanRequest(strings.NewReader(`{"workload":"wordcount","wat":1}`)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("unknown field err = %v", err)
	}
	if _, err := DecodePlanRequest(strings.NewReader(`{"workload":"wordcount"} garbage`)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("trailing data err = %v", err)
	}
	if _, err := DecodePlanBatchRequest(strings.NewReader(`{"requests":[]}`)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty batch err = %v", err)
	}
}

// batchBody is a batch of n copies of one small plan request.
func batchBody(n int) string {
	item := `{"workload":"wordcount","num_objects":10,"object_bytes":1048576,"objective":{"goal":"min_time","budget_usd":1}}`
	return `{"requests":[` + strings.TrimSuffix(strings.Repeat(item+",", n), ",") + `]}`
}

// TestDecodeBatchCap: a batch of maxBatchRequests decodes, one more is
// invalid.
func TestDecodeBatchCap(t *testing.T) {
	req, err := DecodePlanBatchRequest(strings.NewReader(batchBody(maxBatchRequests)))
	if err != nil || len(req.Requests) != maxBatchRequests {
		t.Fatalf("batch of %d: err = %v", maxBatchRequests, err)
	}
	if _, err := DecodePlanBatchRequest(strings.NewReader(batchBody(maxBatchRequests + 1))); !errors.Is(err, ErrInvalid) {
		t.Fatalf("batch of %d: err = %v, want ErrInvalid", maxBatchRequests+1, err)
	}
}

// TestFingerprintStability pins the cache-key contract: tenant never
// participates, equivalent sizes collapse to one key, and any
// plan-changing field separates keys.
func TestFingerprintStability(t *testing.T) {
	a, b := validPlan(), validPlan()
	a.Tenant, b.Tenant = "acme", "globex"
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("tenant leaked into the fingerprint")
	}
	// total_bytes and the equivalent object_bytes share a key.
	b = validPlan()
	b.ObjectBytes = 0
	b.TotalBytes = 10 << 20
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("equivalent sizes differ:\n%s\n%s", a.Fingerprint(), b.Fingerprint())
	}
	for name, mutate := range map[string]func(*PlanRequest){
		"workload":  func(r *PlanRequest) { r.Workload = "sort" },
		"objects":   func(r *PlanRequest) { r.NumObjects = 20 },
		"size":      func(r *PlanRequest) { r.ObjectBytes = 2 << 20 },
		"goal":      func(r *PlanRequest) { r.Objective = ObjectiveSpec{Goal: "min_cost", Deadline: "60s"} },
		"budget":    func(r *PlanRequest) { r.Objective.BudgetUSD = 2 },
		"solver":    func(r *PlanRequest) { r.Solver = "algorithm1" },
		"execute":   func(r *PlanRequest) { r.Execute = true },
		"slofactor": func(r *PlanRequest) { r.Execute = true; r.SLOFactor = 1.5 },
	} {
		c := validPlan()
		mutate(&c)
		if c.Fingerprint() == a.Fingerprint() {
			t.Errorf("%s change did not change the fingerprint", name)
		}
	}
}

func TestFrontierRequestFromQuery(t *testing.T) {
	q := url.Values{}
	q.Set("workload", "sort")
	q.Set("objects", "200")
	q.Set("total_bytes", "1073741824")
	q.Set("size", "16")
	q.Set("tenant", "acme")
	req, err := FrontierRequestFromQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if req.Workload != "sort" || req.NumObjects != 200 || req.TotalBytes != 1<<30 ||
		req.Size != 16 || req.Tenant != "acme" {
		t.Fatalf("req = %+v", req)
	}
	if _, err := req.Resolve(); err != nil {
		t.Fatal(err)
	}
	q.Set("objects", "many")
	if _, err := FrontierRequestFromQuery(q); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bad int err = %v", err)
	}
}

func TestErrorCode(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{ErrInvalid, http.StatusBadRequest},
		{optimizer.ErrInvalidObjective, http.StatusBadRequest},
		{optimizer.ErrNoFeasiblePlan, http.StatusUnprocessableEntity},
		{errors.New("boom"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := ErrorCode(tc.err); got != tc.want {
			t.Errorf("ErrorCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestResolveTenant(t *testing.T) {
	if got := ResolveTenant("hdr", "body"); got != "hdr" {
		t.Fatalf("header precedence: %q", got)
	}
	if got := ResolveTenant("", "body"); got != "body" {
		t.Fatalf("body fallback: %q", got)
	}
	if got := ResolveTenant("", ""); got != "anonymous" {
		t.Fatalf("anonymous fallback: %q", got)
	}
}
