// Command astra-server runs the Astra planning service: a long-running
// HTTP/JSON control plane that serves many concurrent tenants from one
// process-wide pair of planning caches.
//
//	astra-server -addr :8080
//	astra-server -addr :8080 -rate 30 -burst 10 -max-inflight 4 -queue 16
//
// Endpoints:
//
//	POST /v1/plan               one optimal configuration (+ explain,
//	                            search stats; execute=true also runs it)
//	POST /v1/plan/batch         many jobs in one call, index-aligned
//	GET|POST /v1/frontier       anytime Pareto frontier as SSE
//	                            (?stream=0: final frontier as JSON)
//	GET  /v1/tenants/{id}/slo   the tenant's SLO ledger slice
//
// plus the embedded observability plane on the same listener: /metrics,
// /healthz, /qos, /events, /explain, /audit, /debug/pprof/*.
//
// Every tenant (X-Astra-Tenant header) gets an independent token bucket
// (-rate, -burst), in-flight cap (-max-inflight) and bounded accept
// queue (-queue); over-quota requests get a deterministic 429 with
// Retry-After. Identical non-executed requests are served from a TTL'd
// response cache (-cache-ttl, -cache-entries) without touching the
// search engine. SIGINT/SIGTERM drains in-flight plans before closing.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"astra"
	"astra/internal/obs"
	"astra/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "astra-server:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	rate := flag.Float64("rate", 0, "per-tenant sustained requests/sec (0: unlimited)")
	burst := flag.Float64("burst", 10, "per-tenant token-bucket depth")
	maxInflight := flag.Int("max-inflight", 8, "per-tenant concurrently-served request cap")
	queue := flag.Int("queue", 32, "per-tenant accept-queue bound (0: reject instead of queueing)")
	cacheTTL := flag.Duration("cache-ttl", time.Minute, "response-cache entry lifetime")
	cacheEntries := flag.Int("cache-entries", 1024, "response-cache capacity")
	parallelism := flag.Int("parallelism", 1, "per-request inner search parallelism")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound for in-flight plans")
	flag.Parse()

	tel := astra.NewTelemetry()
	ledger := astra.NewQoSLedger()
	o := obs.NewServer(obs.Options{Telemetry: tel, RuntimeMetrics: true})

	svc := server.NewService(server.ServiceConfig{
		Tel:         tel,
		Ledger:      ledger,
		Parallelism: *parallelism,
	})
	srv := server.New(server.Config{
		Service:   svc,
		Telemetry: tel,
		Obs:       o,
		Quota: server.TenantQuota{
			Rate:        *rate,
			Burst:       *burst,
			MaxInFlight: *maxInflight,
			MaxQueue:    *queue,
		},
		CacheTTL:     *cacheTTL,
		CacheEntries: *cacheEntries,
	})
	if err := srv.Start(*addr); err != nil {
		return err
	}
	fmt.Printf("astra-server listening on %s (rate %.4g/s burst %.4g inflight %d queue %d per tenant)\n",
		srv.Addr(), *rate, *burst, *maxInflight, *queue)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("astra-server: draining")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Println("astra-server: stopped")
	return nil
}
