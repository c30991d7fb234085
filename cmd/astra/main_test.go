package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRunPlanOnly(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-workload", "wordcount", "-size-gb", "0.05", "-objects", "8",
		"-objective", "time", "-budget", "0.01",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"plan:", "predicted:", "mappers"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "measured") {
		t.Fatal("plan-only run should not execute")
	}
}

func TestRunWithExecutionAndBaselines(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-workload", "query", "-size-gb", "0.05", "-objects", "6",
		"-objective", "cost", "-deadline", "1h",
		"-run", "-baselines", "-timeline",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"measured:", "Baseline 1", "Baseline 3", "coordinator"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-workload", "sort", "-size-gb", "0.02", "-objects", "4",
		"-run", "-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if res.Workload != "sort" || res.Measured == nil {
		t.Fatalf("result = %+v", res)
	}
	if res.Predicted.JCTSeconds <= 0 || res.Measured.CostUSD <= 0 {
		t.Fatalf("degenerate numbers: %+v", res)
	}
}

func TestRunFromSpecFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.json")
	doc := `{
	  "workload": "grep", "size_gb": 0.05, "objects": 6,
	  "objective": "time", "budget_usd": 0.01,
	  "orchestrator": "step-functions", "intermediates": "cache",
	  "task_retries": 1
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-spec", path, "-run", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if res.Workload != "grep" || res.Measured == nil {
		t.Fatalf("result = %+v", res)
	}
}

// TestSpecTaskRetriesHonoured: a spec file's task_retries applies unless
// -retries is given explicitly, and an explicit -retries overrides it.
func TestSpecTaskRetriesHonoured(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "job.json")
	doc := `{
	  "workload": "wordcount", "size_gb": 0.05, "objects": 8,
	  "objective": "time", "budget_usd": 0.01, "task_retries": 0
	}`
	chaosPath := filepath.Join(dir, "kill-mappers.json")
	profile := `{"seed": 7, "rules": [{"target": "lambda", "effect": "fail_before_start",
	  "phase": "map", "probability": 0.5}]}`
	if err := os.WriteFile(specPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(chaosPath, []byte(profile), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		retries []string
		fail    bool
	}{{nil, true}, {[]string{"-retries", "0"}, true}, {[]string{"-retries", "2"}, false}} {
		args := append([]string{"-spec", specPath, "-chaos", chaosPath}, tc.retries...)
		err := run(context.Background(), args, io.Discard)
		if tc.fail && (err == nil || !strings.Contains(err.Error(), "injected fault")) {
			t.Errorf("%v: err = %v, want an injected mapper fault (task_retries 0)", tc.retries, err)
		}
		if !tc.fail && err != nil {
			t.Errorf("%v: explicit -retries must override the spec: %v", tc.retries, err)
		}
	}
}

// TestRunFromBadSpec: a bad spec and a missing spec file both fail the
// command.
func TestRunFromBadSpec(t *testing.T) {
	if err := run(context.Background(), []string{"-spec", writeSpec(t, `{"workload":"zzz"}`)}, io.Discard); err == nil {
		t.Fatal("bad spec should fail")
	}
	if err := run(context.Background(), []string{"-spec", filepath.Join(t.TempDir(), "missing.json")}, io.Discard); err == nil {
		t.Fatal("missing spec should fail")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var out bytes.Buffer
	cases := [][]string{
		{"-workload", "nope"},
		{"-objective", "speed"},
		{"-size-gb", "0"},
		{"-objects", "-1"},
		{"-solver", "magic"},
		{"-objective", "time", "-budget", "-0.01"},
		{"-objective", "cost", "-deadline", "-1m"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

func TestRunParallelismFlagMatchesSerial(t *testing.T) {
	base := []string{
		"-workload", "wordcount", "-size-gb", "0.05", "-objects", "8",
		"-objective", "time", "-budget", "0.01", "-json",
	}
	var serial, parallel bytes.Buffer
	if err := run(context.Background(), append(base, "-parallelism", "1"), &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), append(base, "-parallelism", "4"), &parallel); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("plans differ across -parallelism:\nserial: %s\nparallel: %s",
			serial.String(), parallel.String())
	}
}

// TestRunExplainAndMetricsOut drives the observability surface end to
// end: -explain must print a populated search report, and -metrics-out
// must write Prometheus text exposition that parses back with the
// planner and platform counters present.
func TestRunExplainAndMetricsOut(t *testing.T) {
	dir := t.TempDir()
	promPath := filepath.Join(dir, "m.prom")
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-workload", "sort", "-size-gb", "0.05", "-objects", "8",
		"-objective", "time", "-budget", "0.01",
		"-run", "-explain", "-metrics-out", promPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"execution plan", "search", "configs evaluated:", "dag:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("explain output missing %q:\n%s", want, s)
		}
	}

	raw, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	values := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("unexpected comment line %q", line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		values[line[:sp]] = v
	}
	if values["astra_plan_solves_total"] < 1 {
		t.Fatalf("plan solves = %v, want >= 1 (families: %d)", values["astra_plan_solves_total"], len(values))
	}
	if values["astra_lambda_invocations_total"] <= 0 {
		t.Fatalf("lambda invocations = %v, want > 0", values["astra_lambda_invocations_total"])
	}
	if values["astra_dag_nodes"] <= 0 {
		t.Fatalf("dag nodes = %v, want > 0", values["astra_dag_nodes"])
	}
}

// TestRunMetricsOutJSON: a .json suffix switches the metrics export to
// the JSON snapshot, spans included.
func TestRunMetricsOutJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-workload", "grep", "-size-gb", "0.05", "-objects", "6",
		"-objective", "time", "-budget", "0.01",
		"-run", "-metrics-out", path,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
		Spans    []struct {
			Path string `json:"path"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("invalid metrics JSON: %v", err)
	}
	if doc.Counters["astra_plan_solves_total"] < 1 {
		t.Fatalf("counters = %v", doc.Counters)
	}
	// Spans time the planner; the run's phases are the flight recorder's.
	foundPlan := false
	for _, sp := range doc.Spans {
		if sp.Path != "plan" && !strings.HasPrefix(sp.Path, "plan/") {
			t.Fatalf("metrics JSON holds span %q; want planning spans only", sp.Path)
		}
		foundPlan = foundPlan || sp.Path == "plan"
	}
	if !foundPlan {
		t.Fatal("metrics JSON missing the 'plan' span")
	}
}

// TestRunTraceOutText: a .txt suffix renders the Gantt chart to the
// trace file instead of CSV.
func TestRunTraceOutText(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.txt")
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-workload", "sort", "-size-gb", "0.02", "-objects", "4",
		"-run", "-trace-out", path,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "#") || !strings.Contains(string(raw), "lambda") {
		t.Fatalf("trace .txt is not a Gantt render:\n%s", raw)
	}
}

func TestRunPlanTimeoutExpired(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-workload", "sort", "-size-gb", "100", "-objects", "200",
		"-objective", "cost", "-deadline", "1h",
		"-plan-timeout", "1ns",
	}, &out)
	if err == nil {
		t.Fatal("expired -plan-timeout should abort planning")
	}
}

// TestRunAuditAndEventsOut drives the flight-recorder surface: -audit
// prints the critical-path and model-accuracy report, and -events-out
// writes a JSONL stream that is byte-identical across two identical runs.
func TestRunAuditAndEventsOut(t *testing.T) {
	dir := t.TempDir()
	args := func(path string) []string {
		return []string{
			"-workload", "wordcount", "-size-gb", "0.05", "-objects", "8",
			"-objective", "time", "-budget", "0.01",
			"-audit", "-events-out", path,
		}
	}
	var out bytes.Buffer
	p1 := filepath.Join(dir, "e1.jsonl")
	if err := run(context.Background(), args(p1), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"flight audit", "critical path", "blocking chain:", "model accuracy", "overall stage MAPE"} {
		if !strings.Contains(s, want) {
			t.Fatalf("audit output missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(s, "measured:") {
		t.Fatal("-audit must imply -run")
	}
	p2 := filepath.Join(dir, "e2.jsonl")
	if err := run(context.Background(), args(p2), io.Discard); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if len(b1) == 0 || !bytes.Equal(b1, b2) {
		t.Fatal("-events-out streams differ across identical runs")
	}
	for _, line := range strings.Split(strings.TrimSpace(string(b1)), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("events file line %q is not JSON: %v", line, err)
		}
	}
}

// TestRunAuditJSON: with -json the audit is embedded in the result
// document instead of rendered as text.
func TestRunAuditJSON(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-workload", "wordcount", "-size-gb", "0.05", "-objects", "8",
		"-objective", "time", "-budget", "0.01",
		"-audit", "-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if res.Audit == nil || len(res.Audit.Path.Stages) == 0 {
		t.Fatalf("result.Audit missing or empty: %+v", res.Audit)
	}
	if res.Audit.JCTPredicted <= 0 {
		t.Fatalf("audit lacks a prediction: %+v", res.Audit)
	}
}

// TestRunRefusesToOverwriteOutputs: every -*-out flag must refuse to
// clobber an existing file unless -f is passed, and the refusal must
// happen before any planning work.
func TestRunRefusesToOverwriteOutputs(t *testing.T) {
	dir := t.TempDir()
	base := []string{
		"-workload", "wordcount", "-size-gb", "0.05", "-objects", "8",
		"-objective", "time", "-budget", "0.01",
	}
	for _, flagName := range []string{"-trace-out", "-metrics-out", "-events-out", "-cpuprofile", "-memprofile"} {
		path := filepath.Join(dir, strings.TrimPrefix(flagName, "-"))
		if err := os.WriteFile(path, []byte("precious"), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := run(context.Background(), append(append([]string{}, base...), flagName, path), &out)
		if err == nil || !strings.Contains(err.Error(), "pass -f to overwrite") {
			t.Fatalf("%s over an existing file: err = %v, want overwrite refusal", flagName, err)
		}
		if got, _ := os.ReadFile(path); string(got) != "precious" {
			t.Fatalf("%s clobbered the existing file", flagName)
		}
		// With -f the same invocation must succeed and replace the file.
		if err := run(context.Background(), append(append([]string{}, base...), flagName, path, "-f"), io.Discard); err != nil {
			t.Fatalf("%s with -f: %v", flagName, err)
		}
		if got, _ := os.ReadFile(path); string(got) == "precious" {
			t.Fatalf("%s -f did not overwrite", flagName)
		}
	}
}

// TestRunFrontierMode drives the -frontier CLI path end to end: the
// anytime phases narrate to stdout, the final points print
// fastest-first, and -frontier-out writes a parseable CSV.
func TestRunFrontierMode(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "points.csv")
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-workload", "wordcount", "-size-gb", "0.05", "-objects", "8",
		"-frontier", "6", "-frontier-out", csvPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"phase 1:", "frontier:", "workload:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}

	raw, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	wantHeader := "jct_seconds,cost_usd,mapper_mem_mb,coord_mem_mb,reducer_mem_mb,objs_per_mapper,objs_per_reducer"
	if lines[0] != wantHeader {
		t.Fatalf("csv header = %q, want %q", lines[0], wantHeader)
	}
	if len(lines) < 3 {
		t.Fatalf("csv has %d data rows, want >= 2", len(lines)-1)
	}
	prev := -1.0
	for _, line := range lines[1:] {
		cols := strings.Split(line, ",")
		if len(cols) != 7 {
			t.Fatalf("csv row %q has %d columns", line, len(cols))
		}
		jct, err := strconv.ParseFloat(cols[0], 64)
		if err != nil || jct <= 0 {
			t.Fatalf("csv row %q: bad jct (%v)", line, err)
		}
		if jct < prev {
			t.Fatalf("csv rows not sorted by time: %v after %v", jct, prev)
		}
		prev = jct
		for _, c := range cols[2:] {
			if v, err := strconv.Atoi(c); err != nil || v <= 0 {
				t.Fatalf("csv row %q: bad config column %q", line, c)
			}
		}
	}
}

// TestRunFrontierJSON: with -json the sweep emits the machine-readable
// document, identical across serial and parallel invocations.
func TestRunFrontierJSON(t *testing.T) {
	base := []string{
		"-workload", "sort", "-size-gb", "0.05", "-objects", "8",
		"-frontier", "8", "-json",
	}
	var serial, par bytes.Buffer
	if err := run(context.Background(), append(base, "-parallelism", "1"), &serial); err != nil {
		t.Fatal(err)
	}
	var doc frontierJSON
	if err := json.Unmarshal(serial.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, serial.String())
	}
	if doc.Workload != "sort" || len(doc.Points) < 2 {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Stats.Searches <= 0 || doc.Stats.Evaluations <= 0 {
		t.Fatalf("stats = %+v", doc.Stats)
	}
	if err := run(context.Background(), append(base, "-parallelism", "4"), &par); err != nil {
		t.Fatal(err)
	}
	// Wall time varies run to run; points and counters must not.
	trim := func(b bytes.Buffer) string {
		var d frontierJSON
		if err := json.Unmarshal(b.Bytes(), &d); err != nil {
			t.Fatal(err)
		}
		d.Stats.WallSeconds = 0
		out, _ := json.Marshal(d)
		return string(out)
	}
	if trim(serial) != trim(par) {
		t.Fatalf("frontier differs across -parallelism:\nserial: %s\nparallel: %s",
			serial.String(), par.String())
	}
}

// TestRunFrontierFlagValidation: the frontier flags reject nonsensical
// combinations and honor the no-clobber contract.
func TestRunFrontierFlagValidation(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	cases := [][]string{
		{"-frontier", "-1"},
		{"-frontier-out", filepath.Join(dir, "p.csv")}, // requires -frontier
		{"-frontier", "4", "-run"},
		{"-frontier", "4", "-baselines"},
		{"-frontier", "4", "-explain"},
		{"-frontier", "4", "-audit"}, // -audit implies -run
	}
	for _, args := range cases {
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
	// No-clobber: an existing -frontier-out must refuse without -f.
	path := filepath.Join(dir, "points.csv")
	if err := os.WriteFile(path, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	base := []string{"-workload", "wordcount", "-size-gb", "0.05", "-objects", "8", "-frontier", "4"}
	err := run(context.Background(), append(append([]string{}, base...), "-frontier-out", path), &out)
	if err == nil || !strings.Contains(err.Error(), "pass -f to overwrite") {
		t.Fatalf("-frontier-out over an existing file: err = %v, want overwrite refusal", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "precious" {
		t.Fatal("-frontier-out clobbered the existing file")
	}
	if err := run(context.Background(), append(append([]string{}, base...), "-frontier-out", path, "-f"), io.Discard); err != nil {
		t.Fatalf("-frontier-out with -f: %v", err)
	}
	if got, _ := os.ReadFile(path); !strings.HasPrefix(string(got), "jct_seconds,") {
		t.Fatal("-frontier-out -f did not overwrite")
	}
}

// TestRunFailsFastOnUnwritableOutputs: an output path in a nonexistent
// directory must fail the command (non-zero exit via main) up front.
func TestRunFailsFastOnUnwritableOutputs(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "no", "such", "dir", "out.file")
	base := []string{
		"-workload", "wordcount", "-size-gb", "0.05", "-objects", "8",
		"-objective", "time", "-budget", "0.01",
	}
	for _, flagName := range []string{"-trace-out", "-metrics-out", "-events-out", "-cpuprofile", "-memprofile"} {
		var out bytes.Buffer
		if err := run(context.Background(), append(append([]string{}, base...), flagName, bad), &out); err == nil {
			t.Fatalf("%s to an unwritable path must fail", flagName)
		}
		if out.Len() != 0 {
			t.Fatalf("%s: output written before the path check:\n%s", flagName, out.String())
		}
	}
}

// syncBuffer lets the serve test read run's output while run is still
// writing it from another goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServeEndToEnd drives -serve the way an operator would: plan and
// run a job with the plane up, scrape every endpoint, then interrupt
// (context cancel) to end the -serve-for window and shut down cleanly.
func TestServeEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-workload", "wordcount", "-size-gb", "0.05", "-objects", "8",
			"-objective", "time", "-budget", "0.01",
			"-run", "-serve", "127.0.0.1:0", "-serve-for", "1h",
		}, &out)
	}()

	deadline := time.Now().Add(30 * time.Second)
	waitFor := func(what string, pred func(string) bool) {
		t.Helper()
		for time.Now().Before(deadline) {
			if pred(out.String()) {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s; output so far:\n%s", what, out.String())
	}

	addrRe := regexp.MustCompile(`observability: (http://\S+)`)
	waitFor("the observability line", func(s string) bool { return addrRe.MatchString(s) })
	base := addrRe.FindStringSubmatch(out.String())[1]
	// "serving for" prints once plan+run are done, so every endpoint has
	// its final content.
	waitFor("the work to finish", func(s string) bool { return strings.Contains(s, "serving for") })

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(b)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	code, metrics := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics: code %d", code)
	}
	for _, want := range []string{
		"astra_go_goroutines",            // runtime sampler is on
		"astra_obs_http_requests_total{", // the plane meters itself
		"astra_plan_solves_total",        // planning published its counters
		"astra_lambda_invocations_total", // ... and so did the run
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, metrics)
		}
	}
	// Every sample line must parse as `name[{labels}] value` — the
	// 0.0.4 text shape Prometheus ingests.
	sampleRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[+-]Inf|[-+0-9.eE]+)$`)
	for _, line := range strings.Split(strings.TrimRight(metrics, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleRe.MatchString(line) {
			t.Fatalf("/metrics line does not parse: %q", line)
		}
	}
	if code, body := get("/explain"); code != 200 || len(body) == 0 {
		t.Fatalf("/explain: %d (%d bytes)", code, len(body))
	}
	if code, body := get("/events?follow=0"); code != 200 || !strings.Contains(body, "id: 1\n") {
		t.Fatalf("/events: %d, first frame missing:\n%.400s", code, body)
	}

	cancel() // the operator's ctrl-c: ends -serve-for, shuts the plane down
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}

// TestProfileFlagsWriteValidProfiles: -cpuprofile and -memprofile write
// non-empty gzipped pprof protos via the up-front no-clobber open path.
func TestProfileFlagsWriteValidProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	err := run(context.Background(), []string{
		"-workload", "wordcount", "-size-gb", "0.05", "-objects", "8",
		"-objective", "time", "-budget", "0.01",
		"-cpuprofile", cpu, "-memprofile", mem,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Fatalf("%s: not a gzipped profile (%d bytes)", path, len(b))
		}
	}
}
