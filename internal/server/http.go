package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"astra/internal/api"
	"astra/internal/obs"
	"astra/internal/telemetry"
)

// Config wires one control-plane server.
type Config struct {
	// Service handles the typed requests (NewService for production;
	// tests substitute stubs to script timing).
	Service Service
	// Telemetry receives astra_server_* counters and gauges. Left nil a
	// private registry is created (Obs should then be left nil too, or
	// /metrics will scrape a different registry than the server counts
	// into).
	Telemetry *telemetry.Registry
	// Quota is the per-tenant admission policy. The zero value admits
	// everything (unlimited rate, 1 in-flight, no queue) — set it.
	Quota TenantQuota
	// CacheTTL and CacheEntries bound the response cache (defaults 60s,
	// 1024).
	CacheTTL     time.Duration
	CacheEntries int
	// Obs, when non-nil, is mounted on the same mux: /metrics, /healthz,
	// /qos, /events, /explain, /audit and /debug/pprof/* come for free.
	// The server owns shutting it down.
	Obs *obs.Server
	// Now is the clock admission and the response cache run on (nil:
	// time.Now). Tests inject a virtual clock for deterministic 429s.
	Now func() time.Time
}

// Server is the control-plane HTTP front end. Construct with New, mount
// via Handler or Start, and always Shutdown when done.
type Server struct {
	svc   Service
	reg   *telemetry.Registry
	adm   *Admission
	cache *RespCache
	obs   *obs.Server

	mux *http.ServeMux
	// Listener provides Start, Addr and URL.
	*obs.Listener

	closing   chan struct{}
	closeOnce sync.Once

	// drainMu serializes the draining flag against in-flight accounting:
	// handlers take the read side around (check, Add), Shutdown takes the
	// write side to flip the flag, so inflight.Wait() can never race a
	// late Add.
	drainMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup
}

// New builds a server over svc.
func New(cfg Config) *Server {
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.New()
	}
	s := &Server{
		svc:     cfg.Service,
		reg:     reg,
		obs:     cfg.Obs,
		mux:     http.NewServeMux(),
		closing: make(chan struct{}),
	}
	s.Listener = obs.NewListener(s.mux)
	s.adm = NewAdmission(cfg.Quota, reg, s.closing, cfg.Now)
	s.cache = NewRespCache(cfg.CacheEntries, cfg.CacheTTL, reg, cfg.Now)

	s.handle("POST /v1/plan", "/v1/plan", s.handlePlan)
	s.handle("POST /v1/plan/batch", "/v1/plan/batch", s.handleBatch)
	s.handle("GET /v1/frontier", "/v1/frontier", s.handleFrontier)
	s.handle("POST /v1/frontier", "/v1/frontier", s.handleFrontier)
	s.handle("GET /v1/tenants/{id}/slo", "/v1/tenants/slo", s.handleTenantSLO)
	if s.obs != nil {
		// Everything outside /v1/ falls through to the observability
		// plane: /metrics, /healthz, /qos, /events, /frontier (obs SSE),
		// /explain, /audit, /debug/pprof/*.
		s.mux.Handle("/", s.obs.Handler())
	}
	return s
}

// handle mounts one endpoint behind the per-endpoint request counter,
// with its body capped at api.MaxRequestBytes (a read past it fails, and
// the decode answers 413) and its panics, its own or a parallel worker's
// that parallel.ForEach raises again on it, answered 500. A panic
// unwinds through the handler's own defers first, so its admission
// ticket and its in-flight count are released as on any other return.
// A response already under way gets no second status: a stream ends with
// an SSE error comment, as handleFrontier ends a failed one, and any
// other body is cut off.
func (s *Server) handle(pattern, label string, h http.HandlerFunc) {
	counter := s.reg.Counter(telemetry.LabelSeries(telemetry.MServerRequests, "endpoint", label))
	panics := s.reg.Counter(telemetry.MServerPanics)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		counter.Inc()
		sw := &startedWriter{ResponseWriter: w}
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			panics.Inc()
			log.Printf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			switch {
			case !sw.started:
				writeError(w, http.StatusInternalServerError, "internal server error", 0)
			case w.Header().Get("Content-Type") == "text/event-stream":
				fmt.Fprint(w, ": error internal server error\n\n")
			default:
				panic(http.ErrAbortHandler)
			}
		}()
		r.Body = http.MaxBytesReader(w, r.Body, api.MaxRequestBytes)
		h(sw, r)
	})
}

// startedWriter records whether a handler has begun its response.
type startedWriter struct {
	http.ResponseWriter
	started bool
}

func (w *startedWriter) WriteHeader(code int) {
	w.started = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *startedWriter) Write(b []byte) (int, error) {
	w.started = true
	return w.ResponseWriter.Write(b)
}

func (w *startedWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		w.started = true
		f.Flush()
	}
}

func (w *startedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// badRequest answers a request whose body or query did not decode: 413
// when the body ran past api.MaxRequestBytes, 400 otherwise.
func badRequest(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if api.ErrorCode(err) == http.StatusRequestEntityTooLarge {
		code = http.StatusRequestEntityTooLarge
	}
	writeError(w, code, err.Error(), 0)
}

// Handler exposes the route table for embedding.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the registry the server counts into.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Admission exposes the admission controller (tests inspect queue depth).
func (s *Server) Admission() *Admission { return s.adm }

// RespCache exposes the response cache (tests verify hit accounting).
func (s *Server) RespCache() *RespCache { return s.cache }

// Shutdown drains the control plane gracefully, in order: (1) the drain
// gate flips, so new requests get 503; (2) every in-flight plan — SSE
// frontier streams included — runs to completion (bounded by ctx); (3)
// the closing channel releases queued admission waiters; (4) the
// observability plane shuts down, closing its SSE clients cleanly; (5)
// the HTTP listener drains. Safe to call more than once, and without
// Start.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.closeOnce.Do(func() {
		s.drainMu.Lock()
		s.draining = true
		s.drainMu.Unlock()

		drained := make(chan struct{})
		go func() {
			s.inflight.Wait()
			close(drained)
		}()
		select {
		case <-drained:
		case <-ctx.Done():
			err = ctx.Err()
		}
		close(s.closing)
		if s.obs != nil {
			if oerr := s.obs.Shutdown(ctx); err == nil {
				err = oerr
			}
		}
	})
	if serr := s.Listener.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// enter registers one in-flight request; it reports false (and the
// caller must 503) once draining has begun.
func (s *Server) enter() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// writeError emits the JSON error envelope.
func writeError(w http.ResponseWriter, code int, msg string, retryAfter time.Duration) {
	w.Header().Set("Content-Type", "application/json")
	env := api.ErrorResponse{Error: msg}
	if retryAfter > 0 {
		env.RetryAfterMS = int64((retryAfter + time.Millisecond - 1) / time.Millisecond)
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(env)
}

// admit runs the gauntlet every /v1 request passes: the drain gate, the
// tenant accounting counter, and admission control. It returns a nil
// ticket after writing the response when the request was turned away.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, tenant string) *Ticket {
	s.reg.Counter(telemetry.LabelSeries(telemetry.MServerTenantRequests, "tenant", tenant)).Inc()
	ticket, rej, err := s.adm.Admit(r.Context(), tenant)
	if rej != nil {
		s.reg.Counter(telemetry.LabelSeries(telemetry.MServerRejects, "tenant", tenant, "reason", rej.Reason)).Inc()
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q over quota (%s)", tenant, rej.Reason), rej.RetryAfter)
		return nil
	}
	if err != nil {
		// Context cancelled (client gone — nothing to write) or draining.
		if err == ErrDraining {
			writeError(w, http.StatusServiceUnavailable, "server draining", 0)
		}
		return nil
	}
	return ticket
}

// finish stamps the out-of-band timing headers. Bodies stay
// byte-identical across cache hits; timing rides in headers only.
func finish(w http.ResponseWriter, queueWait, service time.Duration, cache string) {
	w.Header().Set(api.QueueHeader, strconv.FormatInt(queueWait.Nanoseconds(), 10))
	w.Header().Set(api.ServiceHeader, strconv.FormatInt(service.Nanoseconds(), 10))
	if cache != "" {
		w.Header().Set(api.CacheHeader, cache)
	}
}

func writeJSONBytes(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// respond renders one JSON response and writes it with its timing
// headers. A non-empty key sends it through the response cache, where
// concurrent misses on one key coalesce: one request renders, the rest
// wait for the same bytes and answer "miss" like it. An empty key
// bypasses the cache.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, ticket *Ticket, key string, render func(context.Context) ([]byte, error)) {
	t0 := time.Now()
	var body []byte
	var err error
	verdict := "bypass"
	if key == "" {
		body, err = render(r.Context())
	} else {
		var hit bool
		body, hit, err = s.cache.Do(r.Context(), key, render)
		verdict = "miss"
		if hit {
			verdict = "hit"
		}
	}
	if err != nil {
		writeError(w, api.ErrorCode(err), err.Error(), 0)
		return
	}
	service := time.Since(t0)
	if verdict == "hit" {
		service = 0
	}
	finish(w, ticket.QueueWait, service, verdict)
	writeJSONBytes(w, body)
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if !s.enter() {
		writeError(w, http.StatusServiceUnavailable, "server draining", 0)
		return
	}
	defer s.inflight.Done()

	req, err := api.DecodePlanRequest(r.Body)
	if err != nil {
		badRequest(w, err)
		return
	}
	tenant := api.ResolveTenant(r.Header.Get(api.TenantHeader), req.Tenant)
	req.Tenant = tenant
	ticket := s.admit(w, r, tenant)
	if ticket == nil {
		return
	}
	defer ticket.Release()

	// Executed requests have ledger side effects, so only pure planning
	// goes through the response cache.
	key := ""
	if !req.Execute {
		key = req.Fingerprint()
	}
	s.respond(w, r, ticket, key, func(ctx context.Context) ([]byte, error) {
		resp, err := s.svc.Plan(ctx, req)
		if err != nil {
			return nil, err
		}
		return json.Marshal(resp)
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !s.enter() {
		writeError(w, http.StatusServiceUnavailable, "server draining", 0)
		return
	}
	defer s.inflight.Done()

	req, err := api.DecodePlanBatchRequest(r.Body)
	if err != nil {
		badRequest(w, err)
		return
	}
	tenant := api.ResolveTenant(r.Header.Get(api.TenantHeader), req.Tenant)
	req.Tenant = tenant
	ticket := s.admit(w, r, tenant)
	if ticket == nil {
		return
	}
	defer ticket.Release()

	s.respond(w, r, ticket, "", func(ctx context.Context) ([]byte, error) {
		resp, err := s.svc.PlanBatch(ctx, req)
		if err != nil {
			return nil, err
		}
		return json.Marshal(resp)
	})
}

// handleFrontier serves both forms of the frontier endpoint. The default
// is an SSE stream of anytime snapshots (id = 1-based update index, the
// final frame marked final:true); ?stream=0 returns only the final
// frontier as one JSON document whose bytes match the final SSE frame.
func (s *Server) handleFrontier(w http.ResponseWriter, r *http.Request) {
	if !s.enter() {
		writeError(w, http.StatusServiceUnavailable, "server draining", 0)
		return
	}
	defer s.inflight.Done()

	var req *api.FrontierRequest
	var err error
	if r.Method == http.MethodPost {
		req, err = api.DecodeFrontierRequest(r.Body)
	} else {
		req, err = api.FrontierRequestFromQuery(r.URL.Query())
	}
	if err != nil {
		badRequest(w, err)
		return
	}
	tenant := api.ResolveTenant(r.Header.Get(api.TenantHeader), req.Tenant)
	req.Tenant = tenant
	ticket := s.admit(w, r, tenant)
	if ticket == nil {
		return
	}
	defer ticket.Release()

	stream := true
	if v := r.URL.Query().Get("stream"); v == "0" || v == "false" {
		stream = false
	}
	if !stream {
		s.respond(w, r, ticket, req.Fingerprint(), func(ctx context.Context) ([]byte, error) {
			resp, err := s.svc.Frontier(ctx, req, nil)
			if err != nil {
				return nil, err
			}
			return json.Marshal(resp.Final)
		})
		return
	}

	flusher := obs.SSEHeaders(w)
	w.Header().Set(api.QueueHeader, strconv.FormatInt(ticket.QueueWait.Nanoseconds(), 10))
	seq := int64(0)
	_, err = s.svc.Frontier(r.Context(), req, func(u api.FrontierUpdate) {
		b, merr := json.Marshal(u)
		if merr != nil {
			return
		}
		seq++
		obs.WriteSSE(w, seq, b)
		if flusher != nil {
			flusher.Flush()
		}
	})
	if err != nil && seq == 0 {
		// Nothing streamed yet: the error taxonomy still applies.
		writeError(w, api.ErrorCode(err), err.Error(), 0)
		return
	}
	if err != nil {
		// Mid-stream failure: surface as a terminal SSE comment.
		fmt.Fprintf(w, ": error %s\n\n", err)
	}
}

func (s *Server) handleTenantSLO(w http.ResponseWriter, r *http.Request) {
	if !s.enter() {
		writeError(w, http.StatusServiceUnavailable, "server draining", 0)
		return
	}
	defer s.inflight.Done()

	tenant := r.PathValue("id")
	if tenant == "" {
		writeError(w, http.StatusBadRequest, "missing tenant id", 0)
		return
	}
	ticket := s.admit(w, r, tenant)
	if ticket == nil {
		return
	}
	defer ticket.Release()
	resp, err := s.svc.TenantSLO(r.Context(), &api.TenantSLORequest{Tenant: tenant})
	if err != nil {
		writeError(w, api.ErrorCode(err), err.Error(), 0)
		return
	}
	body, err := json.Marshal(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error(), 0)
		return
	}
	writeJSONBytes(w, body)
}
