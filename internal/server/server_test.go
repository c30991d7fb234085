package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"astra/internal/api"
	"astra/internal/model"
	"astra/internal/optimizer"
	"astra/internal/qos"
	"astra/internal/telemetry"
)

const planBody = `{"workload":"wordcount","num_objects":10,"object_bytes":1048576,"objective":{"goal":"min_time","budget_usd":1}}`

// startReal starts a server over the production service with private
// caches (tests must not warm the process-wide shared pair).
func startReal(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.New()
	}
	if cfg.Service == nil {
		cfg.Service = NewService(ServiceConfig{
			Templates: optimizer.NewTemplateCache(0),
			Cache:     model.NewPredictionCache(),
			Tel:       cfg.Telemetry,
			Ledger:    qos.NewLedger(),
		})
	}
	srv := New(cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// Concurrent requests can leave the client a dialed-but-never-used
		// connection, which http.Server.Shutdown waits 5 s on; drop it.
		http.DefaultClient.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv
}

func post(t *testing.T, url, tenant, body string) (*http.Response, string) {
	t.Helper()
	resp, b, err := tryPost(url, tenant, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// tryPost is post for goroutines other than the test's own, which must
// not call t.Fatal.
func tryPost(url, tenant, body string) (*http.Response, string, error) {
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	if tenant != "" {
		req.Header.Set(api.TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, "", fmt.Errorf("POST %s: %w", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", fmt.Errorf("POST %s: %w", url, err)
	}
	return resp, string(b), nil
}

// TestPlanEndToEnd: a valid plan request returns a config, predictions,
// search stats and an explain report.
func TestPlanEndToEnd(t *testing.T) {
	srv := startReal(t, Config{})
	resp, body := post(t, srv.URL()+"/v1/plan", "acme", planBody)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr api.PlanResponse
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Config.MapperMemMB <= 0 || pr.PredictedJCTSeconds <= 0 || pr.Explain == "" {
		t.Fatalf("incomplete plan response: %+v", pr)
	}
	if pr.Solver != "label-setting-csp" {
		t.Fatalf("a request naming no solver planned with %q, want the Auto solver (label-setting-csp)", pr.Solver)
	}
	if resp.Header.Get(api.CacheHeader) != "miss" {
		t.Fatalf("first request cache header = %q, want miss", resp.Header.Get(api.CacheHeader))
	}
}

// TestResponseCacheServesWithoutSearch is the acceptance gate for the
// response cache: a warm repeat returns byte-identical bytes, is marked
// a hit, and provably never invokes the search engine
// (astra_plan_solves_total is counter-verified flat).
func TestResponseCacheServesWithoutSearch(t *testing.T) {
	tel := telemetry.New()
	srv := startReal(t, Config{Telemetry: tel})

	resp1, body1 := post(t, srv.URL()+"/v1/plan", "acme", planBody)
	if resp1.StatusCode != 200 {
		t.Fatalf("cold status %d: %s", resp1.StatusCode, body1)
	}
	solvesAfterCold := tel.Counter(telemetry.MPlanSolves).Value()
	if solvesAfterCold == 0 {
		t.Fatal("cold request did not count a solve — counter wiring broken")
	}

	// Different tenant on purpose: planning is tenant-independent, so the
	// fingerprint (and therefore the cached body) is shared.
	resp2, body2 := post(t, srv.URL()+"/v1/plan", "globex", planBody)
	if resp2.StatusCode != 200 {
		t.Fatalf("warm status %d: %s", resp2.StatusCode, body2)
	}
	if body2 != body1 {
		t.Fatalf("cached body diverged:\ncold %s\nwarm %s", body1, body2)
	}
	if got := resp2.Header.Get(api.CacheHeader); got != "hit" {
		t.Fatalf("warm cache header = %q, want hit", got)
	}
	if got := tel.Counter(telemetry.MPlanSolves).Value(); got != solvesAfterCold {
		t.Fatalf("warm request invoked the search engine: solves %d -> %d", solvesAfterCold, got)
	}
	if got := respBooks(tel); !reflect.DeepEqual(got, map[string]int64{
		telemetry.MServerRespCacheHits: 1, telemetry.MServerRespCacheMisses: 1,
	}) {
		t.Fatalf("respcache books = %v, want 1 hit / 1 miss", got)
	}
}

// TestInvalidTwinNotServedFromCache: a body that sets both total_bytes
// and object_bytes is a 400 even after its valid twin (total_bytes only,
// the same per-object size) has been planned and cached; the invalid body
// must not share the twin's cache key. The same holds for a
// non-streaming frontier, which is cached too.
func TestInvalidTwinNotServedFromCache(t *testing.T) {
	srv := startReal(t, Config{})
	const valid = `{"workload":"wordcount","num_objects":10,"total_bytes":10485760`
	for _, tc := range []struct{ path, valid, invalid string }{
		{"/v1/plan",
			valid + `,"objective":{"goal":"min_time","budget_usd":1}}`,
			valid + `,"object_bytes":1048576,"objective":{"goal":"min_time","budget_usd":1}}`},
		{"/v1/frontier?stream=0",
			valid + `,"size":4}`,
			valid + `,"object_bytes":1048576,"size":4}`},
	} {
		if resp, body := post(t, srv.URL()+tc.path, "acme", tc.valid); resp.StatusCode != 200 {
			t.Fatalf("%s valid twin: status %d: %s", tc.path, resp.StatusCode, body)
		}
		resp, body := post(t, srv.URL()+tc.path, "acme", tc.invalid)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s both sizes after the valid twin: status %d (cache %q), want 400: %s",
				tc.path, resp.StatusCode, resp.Header.Get(api.CacheHeader), body)
		}
	}
}

// TestRespellingServedFromCache: two spellings of one request — goal and
// deadline aliases plus the default solver's second name, or a frontier
// size of 0 against the default it stands for — resolve to one job,
// objective and solver, so the second is a cache hit with the first's
// bytes.
func TestRespellingServedFromCache(t *testing.T) {
	srv := startReal(t, Config{})
	const job = `{"workload":"wordcount","num_objects":10,"object_bytes":1048576`
	for _, tc := range []struct{ path, first, second string }{
		{"/v1/plan",
			job + `,"objective":{"goal":"min_cost","deadline":"90s"}}`,
			job + `,"objective":{"goal":"cost","deadline":"1m30s"},"solver":"csp"}`},
		{"/v1/frontier?stream=0",
			job + `}`,
			job + `,"size":24}`},
	} {
		resp1, body1 := post(t, srv.URL()+tc.path, "acme", tc.first)
		if resp1.StatusCode != 200 {
			t.Fatalf("%s first spelling: status %d: %s", tc.path, resp1.StatusCode, body1)
		}
		resp2, body2 := post(t, srv.URL()+tc.path, "globex", tc.second)
		if resp2.StatusCode != 200 {
			t.Fatalf("%s second spelling: status %d: %s", tc.path, resp2.StatusCode, body2)
		}
		if got := resp2.Header.Get(api.CacheHeader); got != "hit" {
			t.Errorf("%s second spelling: cache %q, want hit", tc.path, got)
		}
		if body2 != body1 {
			t.Errorf("%s second spelling's body differs:\nfirst  %s\nsecond %s", tc.path, body1, body2)
		}
	}
}

// TestErrorTaxonomy pins the status mapping: 400 for malformed requests,
// 422 for infeasible objectives, one JSON envelope everywhere.
func TestErrorTaxonomy(t *testing.T) {
	srv := startReal(t, Config{})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"unknown workload", `{"workload":"nope","num_objects":1,"object_bytes":1,"objective":{"goal":"min_time"}}`, 400},
		{"unknown field", `{"workload":"wordcount","wat":1}`, 400},
		{"no goal", `{"workload":"wordcount","num_objects":1,"object_bytes":1,"objective":{}}`, 400},
		{"infeasible zero budget", `{"workload":"wordcount","num_objects":10,"object_bytes":1048576,"objective":{"goal":"min_time","budget_usd":0}}`, 422},
	}
	for _, tc := range cases {
		resp, body := post(t, srv.URL()+"/v1/plan", "acme", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
		var env api.ErrorResponse
		if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error == "" {
			t.Errorf("%s: bad error envelope %q", tc.name, body)
		}
	}
}

// TestWireCannotNameBruteForce: brute force is Go API only, and "yen"
// and "rerank" name no solver, so a plan request naming any of them is a
// 400 that books no solve. The shape is one brute force would take
// seconds of CPU on.
func TestWireCannotNameBruteForce(t *testing.T) {
	tel := telemetry.New()
	srv := startReal(t, Config{Telemetry: tel})
	for _, name := range []string{"brute", "yen", "rerank"} {
		body := `{"workload":"sort","num_objects":2,"object_bytes":1048576,"objective":{"goal":"min_time","budget_usd":1},"solver":"` + name + `"}`
		resp, got := post(t, srv.URL()+"/v1/plan", "acme", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("solver %q: status %d, want 400 (%s)", name, resp.StatusCode, got)
		}
		var env api.ErrorResponse
		if err := json.Unmarshal([]byte(got), &env); err != nil || env.Error == "" {
			t.Errorf("solver %q: bad error envelope %q", name, got)
		}
	}
	if n := tel.Counter(telemetry.MPlanSolves).Value(); n != 0 {
		t.Fatalf("rejected requests booked %d solves, want 0", n)
	}
}

// TestRateLimit429Deterministic drives the full HTTP stack on a virtual
// clock: the third request must be the deterministic 429, with both the
// rounded Retry-After header and the precise retry_after_ms.
func TestRateLimit429Deterministic(t *testing.T) {
	clk := newVclock()
	srv := startReal(t, Config{
		Quota: TenantQuota{Rate: 1, Burst: 2, MaxInFlight: 4},
		Now:   clk.now,
	})
	for i := 0; i < 2; i++ {
		resp, body := post(t, srv.URL()+"/v1/plan", "acme", planBody)
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d (%s)", i, resp.StatusCode, body)
		}
	}
	resp, body := post(t, srv.URL()+"/v1/plan", "acme", planBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want 1", got)
	}
	var env api.ErrorResponse
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.RetryAfterMS != 1000 {
		t.Fatalf("envelope %q, want retry_after_ms 1000", body)
	}
	// An unrelated tenant is admitted: buckets are independent.
	if resp, body := post(t, srv.URL()+"/v1/plan", "globex", planBody); resp.StatusCode != 200 {
		t.Fatalf("other tenant: status %d (%s)", resp.StatusCode, body)
	}
	// The refill is on the virtual clock, not the wall.
	clk.advance(time.Second)
	if resp, body := post(t, srv.URL()+"/v1/plan", "acme", planBody); resp.StatusCode != 200 {
		t.Fatalf("post-refill: status %d (%s)", resp.StatusCode, body)
	}
}

// TestSLOReadSpendsCallersQuota: reading a tenant's SLO is admitted
// under the caller's tenant (X-Astra-Tenant), not the tenant the path
// names, so one tenant's reads cannot drain another's quota.
func TestSLOReadSpendsCallersQuota(t *testing.T) {
	clk := newVclock()
	srv := startReal(t, Config{
		Quota: TenantQuota{Rate: 1, Burst: 2, MaxInFlight: 4},
		Now:   clk.now,
	})
	getSLO := func(caller string) int {
		req, err := http.NewRequest(http.MethodGet, srv.URL()+"/v1/tenants/victim/slo", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(api.TenantHeader, caller)
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		return r.StatusCode
	}
	for i := 0; i < 2; i++ {
		if code := getSLO("mallory"); code != 200 {
			t.Fatalf("read %d: status %d, want 200", i, code)
		}
	}
	if code := getSLO("mallory"); code != http.StatusTooManyRequests {
		t.Fatalf("third read: status %d, want 429 from the caller's own bucket", code)
	}
	if resp, body := post(t, srv.URL()+"/v1/plan", "victim", planBody); resp.StatusCode != 200 {
		t.Fatalf("victim's plan after another tenant read its SLO: status %d (%s)", resp.StatusCode, body)
	}
}

// TestTightQuotaRetriedToCompletion is the caller's side of a tight
// quota: concurrent clients of two tenants replay two recurring shapes and
// retry every 429 after its retry_after_ms, and every request ends 200.
// Admission runs on a virtual clock that only a rejected client advances,
// so each tenant's burst runs dry and 429s are certain. The response cache
// runs the planner once per distinct fingerprint, and the X-Astra-Cache
// verdicts the clients saw are the cache's books on the registry.
func TestTightQuotaRetriedToCompletion(t *testing.T) {
	const workers, tenants, perWorker, burst, maxAttempts = 4, 2, 10, 3, 100
	shapes := []string{
		planBody,
		`{"workload":"sort","num_objects":10,"object_bytes":1048576,"objective":{"goal":"min_cost","deadline":"10m"}}`,
	}
	clk := newVclock()
	tel := telemetry.New()
	srv := startReal(t, Config{
		Telemetry: tel,
		Quota:     TenantQuota{Rate: 10, Burst: burst, MaxInFlight: workers, MaxQueue: 16},
		Now:       clk.now,
		// Retries move the clock; no cached body may expire meanwhile.
		CacheTTL: time.Hour,
	})

	var (
		mu       sync.Mutex
		verdicts = map[string]int64{}
		absorbed atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", w%tenants)
			for i := 0; i < perWorker; i++ {
				body := shapes[(w+i)%len(shapes)]
				for attempt := 1; ; attempt++ {
					resp, got, err := tryPost(srv.URL()+"/v1/plan", tenant, body)
					if err != nil {
						t.Error(err)
						return
					}
					if resp.StatusCode == http.StatusOK {
						mu.Lock()
						verdicts[resp.Header.Get(api.CacheHeader)]++
						mu.Unlock()
						break
					}
					var env api.ErrorResponse
					if resp.StatusCode != http.StatusTooManyRequests || json.Unmarshal([]byte(got), &env) != nil || env.RetryAfterMS <= 0 {
						t.Errorf("%s request %d: status %d (%s)", tenant, i, resp.StatusCode, got)
						return
					}
					if attempt == maxAttempts {
						t.Errorf("%s request %d: still rejected after %d attempts", tenant, i, attempt)
						return
					}
					absorbed.Add(1)
					clk.advance(time.Duration(env.RetryAfterMS) * time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	const requests = workers * perWorker
	t.Logf("%d requests, %d 429s absorbed, cache verdicts %v", requests, absorbed.Load(), verdicts)
	if absorbed.Load() == 0 {
		t.Fatalf("%d requests at burst %d per tenant absorbed no 429", requests, burst)
	}
	var rejects int64
	for tn := 0; tn < tenants; tn++ {
		rejects += tel.Counter(telemetry.LabelSeries(telemetry.MServerRejects, "tenant", fmt.Sprintf("tenant-%d", tn), "reason", "rate")).Value()
	}
	if rejects != absorbed.Load() {
		t.Fatalf("server counted %d rate rejections, clients absorbed %d", rejects, absorbed.Load())
	}
	if got := tel.Counter(telemetry.MPlanSolves).Value(); got != int64(len(shapes)) {
		t.Fatalf("planner solves = %d, want one per distinct fingerprint (%d)", got, len(shapes))
	}
	if verdicts["hit"]+verdicts["miss"] != requests {
		t.Fatalf("cache verdicts = %v, want %d hits and misses", verdicts, requests)
	}
	if got := respBooks(tel); got[telemetry.MServerRespCacheHits] != verdicts["hit"] || got[telemetry.MServerRespCacheMisses] != verdicts["miss"] {
		t.Fatalf("respcache books = %v, clients saw %v", got, verdicts)
	}
}

// sseFrames reads an SSE stream to EOF and returns each frame's data
// payload.
func sseFrames(t *testing.T, rd io.Reader) []string {
	t.Helper()
	var frames []string
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			frames = append(frames, data)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("sse read: %v", err)
	}
	return frames
}

// TestFrontierStreamMatchesFinal is the streaming acceptance gate: the
// SSE form delivers at least 3 anytime snapshots, the last is final, and
// its bytes equal the ?stream=0 response for the same request.
func TestFrontierStreamMatchesFinal(t *testing.T) {
	srv := startReal(t, Config{})
	q := "workload=wordcount&objects=10&object_bytes=1048576&size=8"

	resp, err := http.Get(srv.URL() + "/v1/frontier?" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	frames := sseFrames(t, resp.Body)
	if len(frames) < 3 {
		t.Fatalf("streamed %d snapshots, want >= 3", len(frames))
	}
	var last api.FrontierUpdate
	if err := json.Unmarshal([]byte(frames[len(frames)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if !last.Final || len(last.Points) == 0 {
		t.Fatalf("last frame not a final frontier: %s", frames[len(frames)-1])
	}

	nresp, body := func() (*http.Response, string) {
		r, err := http.Get(srv.URL() + "/v1/frontier?" + q + "&stream=0")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		b, _ := io.ReadAll(r.Body)
		return r, strings.TrimRight(string(b), "\n")
	}()
	if nresp.StatusCode != 200 {
		t.Fatalf("stream=0 status %d: %s", nresp.StatusCode, body)
	}
	if body != frames[len(frames)-1] {
		t.Fatalf("final SSE frame != non-streaming body:\nsse  %s\njson %s",
			frames[len(frames)-1], body)
	}
}

// TestBatchMixedValidation: invalid slots carry their own code in place,
// valid slots plan, and indexes stay aligned.
func TestBatchMixedValidation(t *testing.T) {
	srv := startReal(t, Config{})
	body := `{"requests":[
		{"workload":"wordcount","num_objects":10,"object_bytes":1048576,"objective":{"goal":"min_time","budget_usd":1}},
		{"workload":"nope","num_objects":1,"object_bytes":1,"objective":{"goal":"min_time"}},
		{"workload":"sort","num_objects":10,"object_bytes":1048576,"objective":{"goal":"min_cost","deadline":"10m"}}
	]}`
	resp, got := post(t, srv.URL()+"/v1/plan/batch", "acme", body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	var br api.PlanBatchResponse
	if err := json.Unmarshal([]byte(got), &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(br.Results))
	}
	if br.Results[0].Plan == nil || br.Results[0].Error != "" {
		t.Fatalf("slot 0: %+v", br.Results[0])
	}
	if br.Results[1].Plan != nil || br.Results[1].Code != 400 {
		t.Fatalf("slot 1: %+v", br.Results[1])
	}
	if br.Results[2].Plan == nil {
		t.Fatalf("slot 2: %+v", br.Results[2])
	}
}

// TestBatchRejectsPlanOnlyFields: every batch slot plans with the Auto
// solver and none is executed, so a slot that names a solver, sets
// execute or sets slo_factor gets a 400 in its own result, while its
// neighbours plan.
func TestBatchRejectsPlanOnlyFields(t *testing.T) {
	srv := startReal(t, Config{})
	const job = `"workload":"wordcount","num_objects":10,"object_bytes":1048576,"objective":{"goal":"min_time","budget_usd":1}`
	body := `{"requests":[
		{` + job + `},
		{` + job + `,"solver":"csp"},
		{` + job + `,"execute":true},
		{` + job + `,"slo_factor":2}
	]}`
	resp, got := post(t, srv.URL()+"/v1/plan/batch", "acme", body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	var br api.PlanBatchResponse
	if err := json.Unmarshal([]byte(got), &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 4 {
		t.Fatalf("results = %d, want 4", len(br.Results))
	}
	if r := br.Results[0]; r.Plan == nil || r.Plan.Solver != "label-setting-csp" {
		t.Fatalf("slot 0: %+v", r)
	}
	for i, r := range br.Results[1:] {
		if r.Plan != nil || r.Code != 400 || r.Error == "" {
			t.Fatalf("slot %d: %+v, want a 400 item error", i+1, r)
		}
	}
}

// TestBatchCapRejectsBeforePlanning: a batch of 256 plans is served; one
// of 257 is a 400 and plans nothing.
func TestBatchCapRejectsBeforePlanning(t *testing.T) {
	tel := telemetry.New()
	srv := startReal(t, Config{Telemetry: tel})
	batch := func(n int) string {
		return `{"requests":[` + strings.TrimSuffix(strings.Repeat(planBody+",", n), ",") + `]}`
	}
	resp, got := post(t, srv.URL()+"/v1/plan/batch", "acme", batch(256))
	if resp.StatusCode != 200 {
		t.Fatalf("batch of 256: status %d: %s", resp.StatusCode, got)
	}
	solves := tel.Counter(telemetry.MPlanSolves).Value()
	resp, got = post(t, srv.URL()+"/v1/plan/batch", "acme", batch(257))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch of 257: status %d: %s", resp.StatusCode, got)
	}
	if after := tel.Counter(telemetry.MPlanSolves).Value(); after != solves {
		t.Fatalf("rejected batch planned: solves %d -> %d", solves, after)
	}
}

// TestExecuteSettlesTenantSLO: execute=true runs the plan under a QoS
// monitor and the outcome lands in the caller's SLO row.
func TestExecuteSettlesTenantSLO(t *testing.T) {
	srv := startReal(t, Config{})
	body := `{"workload":"wordcount","num_objects":10,"object_bytes":1048576,"objective":{"goal":"min_time","budget_usd":1},"execute":true}`
	resp, got := post(t, srv.URL()+"/v1/plan", "acme", body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if h := resp.Header.Get(api.CacheHeader); h != "bypass" {
		t.Fatalf("executed request cache header = %q, want bypass", h)
	}
	var pr api.PlanResponse
	if err := json.Unmarshal([]byte(got), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Run == nil {
		t.Fatalf("run outcome missing: %s", got)
	}
	// Both bodies below are pinned to what the service produced before its
	// executed runs moved onto astra.RunWith: the swap changed no number.
	const wantRun = `{"measured_jct_seconds":2.719464279,"measured_cost_usd":0.00007019618505192194,"deadline_seconds":2.8554374940000002,"attained":true}`
	if run, _ := json.Marshal(pr.Run); string(run) != wantRun {
		t.Fatalf("run outcome\n got %s\nwant %s", run, wantRun)
	}

	sresp, sbody := func() (*http.Response, string) {
		r, err := http.Get(srv.URL() + "/v1/tenants/acme/slo")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		b, _ := io.ReadAll(r.Body)
		return r, string(b)
	}()
	if sresp.StatusCode != 200 {
		t.Fatalf("slo status %d: %s", sresp.StatusCode, sbody)
	}
	const wantSLO = `{"tenant":"acme","runs":1,"attained":1,"breached":0,"entries":[{"tenant":"acme","job":"wordcount","runs":1,"attained":1,"breached":0,"attainment_rate":1,"window_runs":1,"window_burn_rate":0,"cost_usd":0.00007019593372500002,"wasted_usd":0}]}`
	if strings.TrimSpace(sbody) != wantSLO {
		t.Fatalf("slo body\n got %s\nwant %s", sbody, wantSLO)
	}
	var slo api.TenantSLOResponse
	if err := json.Unmarshal([]byte(sbody), &slo); err != nil {
		t.Fatal(err)
	}
	if slo.Tenant != "acme" || slo.Runs != 1 || len(slo.Entries) != 1 {
		t.Fatalf("slo = %s", sbody)
	}
	if slo.Entries[0].Job != "wordcount" {
		t.Fatalf("ledger job = %q, want wordcount", slo.Entries[0].Job)
	}
	// Another tenant sees an empty slice, not acme's rows.
	r2, b2 := func() (*http.Response, string) {
		r, err := http.Get(srv.URL() + "/v1/tenants/globex/slo")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		b, _ := io.ReadAll(r.Body)
		return r, string(b)
	}()
	var other api.TenantSLOResponse
	if err := json.Unmarshal([]byte(b2), &other); err != nil || r2.StatusCode != 200 {
		t.Fatalf("globex slo: %d %s", r2.StatusCode, b2)
	}
	if other.Runs != 0 || len(other.Entries) != 0 {
		t.Fatalf("tenant isolation broken: %s", b2)
	}
}

// TestExecutedRunsFiledUnderResolvedJob: one job spelled three ways and
// executed by one tenant settles into one SLO entry and one labeled
// attainment series, filed under the resolved profile name.
func TestExecutedRunsFiledUnderResolvedJob(t *testing.T) {
	tel := telemetry.New()
	srv := startReal(t, Config{Telemetry: tel})
	for _, w := range []string{"wordcount", "WordCount", "WORDCOUNT"} {
		body := `{"workload":"` + w + `","num_objects":10,"object_bytes":1048576,"objective":{"goal":"min_time","budget_usd":1},"execute":true}`
		if resp, got := post(t, srv.URL()+"/v1/plan", "acme", body); resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", w, resp.StatusCode, got)
		}
	}
	r, err := http.Get(srv.URL() + "/v1/tenants/acme/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var slo api.TenantSLOResponse
	if err := json.NewDecoder(r.Body).Decode(&slo); err != nil {
		t.Fatal(err)
	}
	if slo.Runs != 3 || len(slo.Entries) != 1 || slo.Entries[0].Job != "wordcount" || slo.Entries[0].Runs != 3 {
		t.Fatalf("slo = %+v, want one wordcount entry with 3 runs", slo)
	}
	var series []string
	for name := range tel.Snapshot().Counters {
		if strings.HasPrefix(name, telemetry.MQoSSLOAttained+"{") {
			series = append(series, name)
		}
	}
	if len(series) != 1 {
		t.Fatalf("attainment series = %v, want one", series)
	}
}

// stubService scripts request timing so a test controls exactly when an
// in-flight request completes, and counts how often the planner ran.
// Every call answers differently, so equal bodies prove shared bytes.
type stubService struct {
	started chan struct{} // closed when the first Plan enters
	release chan struct{} // Plan and Frontier block until this closes
	once    sync.Once
	calls   atomic.Int64
}

func (s *stubService) block(ctx context.Context) (int, error) {
	n := int(s.calls.Add(1))
	s.once.Do(func() { close(s.started) })
	select {
	case <-s.release:
		return n, nil
	case <-ctx.Done():
		return n, ctx.Err()
	}
}

func (s *stubService) Plan(ctx context.Context, req *api.PlanRequest) (*api.PlanResponse, error) {
	n, err := s.block(ctx)
	if err != nil {
		return nil, err
	}
	return &api.PlanResponse{Solver: fmt.Sprintf("stub-%d", n)}, nil
}

func (s *stubService) PlanBatch(context.Context, *api.PlanBatchRequest) (*api.PlanBatchResponse, error) {
	return &api.PlanBatchResponse{}, nil
}

func (s *stubService) Frontier(ctx context.Context, _ *api.FrontierRequest, _ func(api.FrontierUpdate)) (*api.FrontierResponse, error) {
	n, err := s.block(ctx)
	if err != nil {
		return nil, err
	}
	return &api.FrontierResponse{Final: api.FrontierUpdate{Phase: n, Final: true}}, nil
}

func (s *stubService) TenantSLO(context.Context, *api.TenantSLORequest) (*api.TenantSLOResponse, error) {
	return &api.TenantSLOResponse{}, nil
}

// TestGracefulShutdownDrains is the drain gate: Shutdown lets the
// in-flight request finish (200, not a reset), rejects new work with
// 503 while draining, and only then returns.
func TestGracefulShutdownDrains(t *testing.T) {
	stub := &stubService{started: make(chan struct{}), release: make(chan struct{})}
	srv := New(Config{Service: stub, Quota: TenantQuota{MaxInFlight: 4}})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	inflight := make(chan struct {
		code int
		body string
	}, 1)
	go func() {
		resp, err := http.Post(srv.URL()+"/v1/plan", "application/json", strings.NewReader(planBody))
		if err != nil {
			inflight <- struct {
				code int
				body string
			}{0, err.Error()}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		inflight <- struct {
			code int
			body string
		}{resp.StatusCode, string(b)}
	}()
	<-stub.started

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	// Once draining, new requests are refused up front with 503. Wait for
	// the gate itself to flip before probing: a probe that got through it
	// first would block in the stub until release, which is closed below.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		srv.drainMu.RLock()
		draining := srv.draining
		srv.drainMu.RUnlock()
		if draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Shutdown never closed the drain gate")
		}
	}
	resp, err := http.Post(srv.URL()+"/v1/plan", "application/json", strings.NewReader(planBody))
	if err != nil {
		t.Fatalf("request during drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503", resp.StatusCode)
	}
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned before the in-flight request finished: %v", err)
	default:
	}

	close(stub.release)
	got := <-inflight
	if got.code != 200 || !strings.Contains(got.body, "stub") {
		t.Fatalf("in-flight request: %d %q, want a completed 200", got.code, got.body)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestConcurrentMissesPlanOnce is the stampede gate: a herd of identical
// cold requests runs the planner once, every member gets the same bytes
// and answers "miss" (a request that waited did not find the body
// resident), and the next request is a hit. The herd is released only
// once all but one member are counted as waiting, so the outcome does
// not depend on scheduling.
func TestConcurrentMissesPlanOnce(t *testing.T) {
	const herd = 8
	for _, tc := range []struct {
		name string
		send func(base string) (*http.Response, error)
	}{
		{"plan", func(base string) (*http.Response, error) {
			return http.Post(base+"/v1/plan", "application/json", strings.NewReader(planBody))
		}},
		{"frontier", func(base string) (*http.Response, error) {
			return http.Get(base + "/v1/frontier?workload=wordcount&objects=10&object_bytes=1048576&size=4&stream=0")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stub := &stubService{started: make(chan struct{}), release: make(chan struct{})}
			srv := startReal(t, Config{Service: stub, Quota: TenantQuota{MaxInFlight: herd}})
			fetch := func() (verdict, body string) {
				resp, err := tc.send(srv.URL())
				if err != nil {
					t.Error(err)
					return "", ""
				}
				defer resp.Body.Close()
				b, _ := io.ReadAll(resp.Body)
				if resp.StatusCode != 200 {
					t.Errorf("status %d: %s", resp.StatusCode, b)
				}
				return resp.Header.Get(api.CacheHeader), string(b)
			}

			verdicts, bodies := make([]string, herd), make([]string, herd)
			var wg sync.WaitGroup
			for i := 0; i < herd; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					verdicts[i], bodies[i] = fetch()
				}(i)
			}
			// A waiter's miss is booked before it blocks, so herd misses
			// mean the render and every waiter are aboard.
			misses := srv.Registry().Counter(telemetry.MServerRespCacheMisses)
			deadline := time.Now().Add(5 * time.Second)
			for misses.Value() < herd && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			joined := misses.Value()
			close(stub.release)
			wg.Wait()
			if joined != herd {
				t.Fatalf("%d of %d requests missed on the first one's render (planner calls: %d)", joined, herd, stub.calls.Load())
			}

			if n := stub.calls.Load(); n != 1 {
				t.Fatalf("herd of %d ran the planner %d times, want 1", herd, n)
			}
			for i := 0; i < herd; i++ {
				if bodies[i] != bodies[0] || verdicts[i] != "miss" {
					t.Fatalf("request %d: verdict %q, body %q; want miss and request 0's body %q",
						i, verdicts[i], bodies[i], bodies[0])
				}
			}
			if got := respBooks(srv.Registry()); !reflect.DeepEqual(got, map[string]int64{telemetry.MServerRespCacheMisses: herd}) {
				t.Fatalf("respcache books = %v, want 0 hits / %d misses", got, herd)
			}
			if v, b := fetch(); v != "hit" || b != bodies[0] || stub.calls.Load() != 1 {
				t.Fatalf("request after the herd: verdict %q, body %q, planner calls %d; want a hit on %q",
					v, b, stub.calls.Load(), bodies[0])
			}
		})
	}
}

// TestConcurrentTenantsHammer is the -race gate: >= 4 tenants drive a
// mixed endpoint workload through one server concurrently.
func TestConcurrentTenantsHammer(t *testing.T) {
	srv := startReal(t, Config{
		Quota: TenantQuota{Rate: 1000, Burst: 1000, MaxInFlight: 2, MaxQueue: 64},
	})
	const tenants, perTenant = 4, 6
	var wg sync.WaitGroup
	for tn := 0; tn < tenants; tn++ {
		wg.Add(1)
		go func(tn int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", tn)
			for i := 0; i < perTenant; i++ {
				switch i % 3 {
				case 0:
					resp, body := post(t, srv.URL()+"/v1/plan", tenant, planBody)
					if resp.StatusCode != 200 {
						t.Errorf("%s plan %d: %d %s", tenant, i, resp.StatusCode, body)
					}
				case 1:
					r, err := http.Get(srv.URL() + "/v1/frontier?workload=wordcount&objects=10&object_bytes=1048576&size=4&stream=0&tenant=" + tenant)
					if err != nil {
						t.Errorf("%s frontier: %v", tenant, err)
						continue
					}
					io.Copy(io.Discard, r.Body)
					r.Body.Close()
					if r.StatusCode != 200 {
						t.Errorf("%s frontier %d: %d", tenant, i, r.StatusCode)
					}
				default:
					req, err := http.NewRequest(http.MethodGet, srv.URL()+"/v1/tenants/"+tenant+"/slo", nil)
					if err != nil {
						t.Errorf("%s slo: %v", tenant, err)
						continue
					}
					req.Header.Set(api.TenantHeader, tenant)
					r, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Errorf("%s slo: %v", tenant, err)
						continue
					}
					io.Copy(io.Discard, r.Body)
					r.Body.Close()
					if r.StatusCode != 200 {
						t.Errorf("%s slo %d: %d", tenant, i, r.StatusCode)
					}
				}
			}
		}(tn)
	}
	wg.Wait()
	// Every tenant's requests were accounted under its own label.
	tel := srv.Registry()
	for tn := 0; tn < tenants; tn++ {
		name := telemetry.LabelSeries(telemetry.MServerTenantRequests, "tenant", fmt.Sprintf("tenant-%d", tn))
		if got := tel.Counter(name).Value(); got != perTenant {
			t.Errorf("tenant-%d accounted %d requests, want %d", tn, got, perTenant)
		}
	}
}

// TestPrimedFrontierAllocatesLittle is the deterministic side of "a shape
// is solved once": a frontier sweep on a primed shape reads the
// template's to-go bounds instead of rebuilding the reverse graph and
// rerunning two Dijkstras over it, which was 2.3 MB of the 2.8 MB a sweep
// of one of the benchmark's shapes allocated. The bounds are computed
// once, by the first sweep. The byte bound is not checked under -short
// nor under the race detector, where sync.Pool drops search scratches at
// random and the bytes measure the pool.
func TestPrimedFrontierAllocatesLittle(t *testing.T) {
	reg := telemetry.New()
	svc := NewService(ServiceConfig{
		Templates: optimizer.NewTemplateCache(0),
		Cache:     model.NewPredictionCache(),
		Tel:       reg,
	})
	req := &api.FrontierRequest{Workload: "sort", NumObjects: 120, ObjectBytes: 96 << 20, Size: 24}
	first, err := svc.Frontier(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	const sweeps = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < sweeps; i++ {
		resp, err := svc.Frontier(context.Background(), req, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Final.Points) != len(first.Final.Points) {
			t.Fatalf("primed sweep returned %d points, the first %d", len(resp.Final.Points), len(first.Final.Points))
		}
	}
	runtime.ReadMemStats(&after)
	if n := len(reg.Snapshot().SpansUnder("plan/togo-bounds")); n != 1 {
		t.Fatalf("%d sweeps of one shape computed its to-go bounds %d times, want 1", sweeps+1, n)
	}
	perSweep := (after.TotalAlloc - before.TotalAlloc) / sweeps
	t.Logf("a primed frontier sweep allocates %d bytes", perSweep)
	if !testing.Short() && !raceEnabled && perSweep >= 600<<10 {
		t.Fatalf("a primed frontier sweep allocates %d bytes, want < 600 KB", perSweep)
	}
}
