package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"astra/internal/api"
	"astra/internal/parallel"
	"astra/internal/telemetry"
)

// padded returns a JSON object of exactly n bytes: prefix (an object's
// fields, without the braces) plus a tenant field long enough to fill
// the rest.
func padded(t *testing.T, prefix string, n int) string {
	t.Helper()
	head := `{` + prefix + `,"tenant":"`
	fill := n - len(head) - len(`"}`)
	if fill < 0 {
		t.Fatalf("prefix alone is %d bytes, past %d", len(head), n)
	}
	return head + strings.Repeat("x", fill) + `"}`
}

// TestBodiesAreCapped: a body one byte past api.MaxRequestBytes is a 413
// in the JSON error envelope on every endpoint that reads one, and plans
// nothing; a body of exactly the cap is read; and a full batch of 256
// requests padded to ~1 KiB each, which is what the cap is sized for,
// plans.
func TestBodiesAreCapped(t *testing.T) {
	tel := telemetry.New()
	srv := startReal(t, Config{Telemetry: tel})
	planFields := strings.TrimSuffix(strings.TrimPrefix(planBody, "{"), "}")
	bodies := map[string]string{
		"/v1/plan":       planFields,
		"/v1/plan/batch": `"requests":[` + planBody + `]`,
		"/v1/frontier":   `"workload":"wordcount","num_objects":10,"object_bytes":1048576,"size":4`,
	}
	for path, fields := range bodies {
		resp, got := post(t, srv.URL()+path, "acme", padded(t, fields, api.MaxRequestBytes+1))
		var env api.ErrorResponse
		if resp.StatusCode != http.StatusRequestEntityTooLarge || json.Unmarshal([]byte(got), &env) != nil || env.Error == "" {
			t.Fatalf("%s, one byte past the cap: status %d, body %.200s; want 413 and an error envelope", path, resp.StatusCode, got)
		}
	}
	if n := tel.Counter(telemetry.MPlanSolves).Value(); n != 0 {
		t.Fatalf("oversized bodies planned %d times", n)
	}
	if resp, got := post(t, srv.URL()+"/v1/plan", "acme", padded(t, planFields, api.MaxRequestBytes)); resp.StatusCode != http.StatusOK {
		t.Fatalf("a plan body of exactly the cap: status %d: %.200s", resp.StatusCode, got)
	}
	item := padded(t, planFields, 1000)
	batch := `{"requests":[` + strings.TrimSuffix(strings.Repeat(item+",", 256), ",") + `]}`
	if len(batch) > api.MaxRequestBytes {
		t.Fatalf("a 256-item batch of 1000-byte requests is %d bytes, past the %d cap", len(batch), api.MaxRequestBytes)
	}
	resp, got := post(t, srv.URL()+"/v1/plan/batch", "acme", batch)
	var br api.PlanBatchResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal([]byte(got), &br) != nil || len(br.Results) != 256 {
		t.Fatalf("256-item batch of %d bytes: status %d: %.200s", len(batch), resp.StatusCode, got)
	}
}

// panickyService panics on its first Plan, first PlanBatch (in one of
// its parallel workers) and first Frontier (after streaming a frame), and
// answers every later one.
type panickyService struct {
	stubService
	plans, batches, frontiers atomic.Int64
}

func (s *panickyService) Plan(context.Context, *api.PlanRequest) (*api.PlanResponse, error) {
	if s.plans.Add(1) == 1 {
		panic("planner bug")
	}
	return &api.PlanResponse{Solver: "stub"}, nil
}

func (s *panickyService) PlanBatch(ctx context.Context, req *api.PlanBatchRequest) (*api.PlanBatchResponse, error) {
	first := s.batches.Add(1) == 1
	out := &api.PlanBatchResponse{Results: make([]api.BatchResult, 8)}
	err := parallel.ForEach(ctx, len(out.Results), 4, func(i int) {
		if first && i == 5 {
			panic("worker bug")
		}
	})
	return out, err
}

func (s *panickyService) Frontier(_ context.Context, _ *api.FrontierRequest, observe func(api.FrontierUpdate)) (*api.FrontierResponse, error) {
	if observe != nil {
		observe(api.FrontierUpdate{})
	}
	if s.frontiers.Add(1) == 1 {
		panic("sweep bug")
	}
	return &api.FrontierResponse{}, nil
}

// TestHandlerPanicIs500: a panic under a /v1 handler answers 500 in the
// JSON error envelope and counts astra_server_panics_total, and the
// request's admission slot comes back: with one slot per tenant and no
// queue, the same tenant's next request is admitted and served.
func TestHandlerPanicIs500(t *testing.T) {
	tel := telemetry.New()
	srv := startReal(t, Config{Telemetry: tel, Service: &panickyService{}, Quota: TenantQuota{MaxInFlight: 1}})
	resp, got := post(t, srv.URL()+"/v1/plan", "acme", planBody)
	var env api.ErrorResponse
	if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal([]byte(got), &env) != nil || env.Error == "" {
		t.Fatalf("panicking plan: status %d, body %q; want 500 and an error envelope", resp.StatusCode, got)
	}
	if n := tel.Counter(telemetry.MServerPanics).Value(); n != 1 {
		t.Fatalf("astra_server_panics_total = %d, want 1", n)
	}
	if resp, got := post(t, srv.URL()+"/v1/plan", "acme", planBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("the same tenant's next plan: status %d: %s", resp.StatusCode, got)
	}
}

// TestWorkerPanicIs500: a panic in a parallel worker of a batch plan
// reaches the handler, which answers 500 in the error envelope and
// returns the admission slot, as for a panic on its own goroutine.
func TestWorkerPanicIs500(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	tel := telemetry.New()
	srv := startReal(t, Config{Telemetry: tel, Service: &panickyService{}, Quota: TenantQuota{MaxInFlight: 1}})
	batch := `{"requests":[` + planBody + `]}`
	resp, got := post(t, srv.URL()+"/v1/plan/batch", "acme", batch)
	var env api.ErrorResponse
	if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal([]byte(got), &env) != nil || env.Error == "" {
		t.Fatalf("batch with a panicking worker: status %d, body %q; want 500 and an error envelope", resp.StatusCode, got)
	}
	if n := tel.Counter(telemetry.MServerPanics).Value(); n != 1 {
		t.Fatalf("astra_server_panics_total = %d, want 1", n)
	}
	if resp, got := post(t, srv.URL()+"/v1/plan/batch", "acme", batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("the same tenant's next batch: status %d: %s", resp.StatusCode, got)
	}
}

// TestStreamPanicEndsStream: a panic after a frontier stream has sent a
// frame keeps the 200 and the frame, and ends the stream with an SSE
// error comment, not a second status or a JSON envelope.
func TestStreamPanicEndsStream(t *testing.T) {
	tel := telemetry.New()
	srv := startReal(t, Config{Telemetry: tel, Service: &panickyService{}})
	resp, err := http.Get(srv.URL() + "/v1/frontier?workload=wordcount&objects=10&object_bytes=1048576&size=4")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := string(body)
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(got, "id: 1\n") ||
		!strings.HasSuffix(got, "\n\n: error internal server error\n\n") || strings.Contains(got, `"error"`) {
		t.Fatalf("stream that panicked after one frame: status %d, body %q", resp.StatusCode, got)
	}
	if n := tel.Counter(telemetry.MServerPanics).Value(); n != 1 {
		t.Fatalf("astra_server_panics_total = %d, want 1", n)
	}
}
