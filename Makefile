# Build and verification targets. `make verify` is the CI gate: static
# vetting plus the full test suite under the race detector (the plan-search
# engine is concurrent by default, so every PR must pass -race).

GO ?= go

.PHONY: build test verify bench bench-build race vet fmt-check procs books examples serve loc

build:
	$(GO) build ./...

# The examples are user-facing documentation that must keep compiling;
# `go build ./...` covers them too, but a dedicated target lets verify
# name them explicitly (and fails fast with a focused error).
examples:
	$(GO) build ./examples/...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt-check:
	test -z "$$(gofmt -l .)"

# -short skips the full evaluation sweeps (internal/experiments), which
# replan every paper artifact and blow the test timeout under race
# instrumentation on small hosts; the sweeps run race-free via `make test`,
# and every concurrency path has dedicated tests that -short keeps.
race:
	$(GO) test -race -short ./...

# No test outcome may depend on scheduling: the packages that drive real
# goroutines against real listeners, the two that hold the tree's
# single-flight code (internal/lru and its herd test in
# internal/optimizer), the two whose per-plan books must be exact in
# company (internal/model's tally, internal/telemetry's scope), the DAG
# builder (its worker pool is capped at GOMAXPROCS, so the parallel build
# is only compared with the serial one where there are Ps to run it on)
# with the orchestration its workers rebind and the graph it freezes in
# place, the recorder/monitor pair (the monitor folds events under
# both locks), and the simulated platform whose processes pass the event
# loop's baton between goroutines (simtime, lambda, objectstore, chaos),
# run on 1, 2 and 4 Ps.
procs:
	for p in 1 2 4; do \
		GOMAXPROCS=$$p $(GO) test -count=3 ./internal/server ./internal/obs ./internal/optimizer \
			./internal/lru ./internal/model ./internal/telemetry \
			./internal/dag ./internal/mapreduce ./internal/graph ./internal/flight ./internal/qos \
			./internal/lambda ./internal/objectstore ./internal/simtime ./internal/chaos || exit 1; \
	done

# One set of books per plan and per run: nothing reconciles a series
# towards a total another writer also increments, the planner never
# copies the registry to read its own counters, and the bounded caches
# (internal/lru and its template and response wrappers) keep no tally
# beside the registry series they write: no Stats() method, no stats
# struct. A simulated run counts each fact once, where it happens: the
# chaos engine keeps no tally beside the platform's (no Stats() method),
# the platform counts a throttle once (no throttles field beside
# ChaosCounters.ThrottleRejects), and phase windows are the flight
# recorder's, not registry spans (no RecordVirtual).
books:
	! grep -rn 'PublishCacheStats\|publishCounterTotal\|fillFromDeltas\|MPlanCache' --include=*.go .
	! grep -n 'Snapshot()' internal/optimizer/*.go | grep -v _test
	! grep -n 'func ([^)]*) Stats()\|Stats struct' internal/lru/*.go internal/optimizer/template.go internal/server/respcache.go | grep -v _test
	! grep -rn 'RecordVirtual' --include=*.go .
	! grep -n 'func ([^)]*) Stats()' internal/chaos/*.go
	! grep -nE '^[[:space:]]+throttles[[:space:]]' internal/lambda/lambda.go

# benchmark/ is a module of its own that compiles against internal
# packages by signature (benchmark/layers.go); `go build ./...` does not
# cover it, so a moved signature would otherwise surface only as a
# benchmark run in which every workload fails to build.
bench-build:
	GOFLAGS=-mod=mod GOWORK=off $(GO) -C benchmark vet ./...
	GOFLAGS=-mod=mod GOWORK=off $(GO) -C benchmark test ./...

verify: vet fmt-check bench-build race procs books examples

# The repo's benchmark (BENCHMARK.json, benchmark/README.md): six traffic
# regimes through a loopback astra-server. Takes -aa N and -against
# results.json, and refuses cross-nproc comparisons.
bench:
	bash benchmark/run.sh

# The planning service: HTTP/JSON control plane on :8080 with per-tenant
# admission (30 req/s sustained, burst 10) and the observability plane
# (/metrics, /qos, /debug/pprof/*) on the same listener.
serve:
	$(GO) run ./cmd/astra-server -addr :8080 -rate 30 -burst 10 \
		-max-inflight 4 -queue 16


# The three line counts a change that deletes code quotes: non-test Go
# outside benchmark/, the Go tests outside it, and benchmark/'s Go (its
# tests included). Build caches and the git directory are not counted.
LOC_FIND = find . \( -path ./benchmark -o -path ./.git -o -path ./.bench_build \) -prune -o -name '*.go'
loc:
	@echo "non-test Go outside benchmark/: $$($(LOC_FIND) ! -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "tests outside benchmark/:       $$($(LOC_FIND) -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "benchmark/:                     $$(find benchmark -name '*.go' -print | xargs cat | wc -l)"
