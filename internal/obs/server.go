// Package obs is Astra's live observability plane: an embeddable,
// gracefully-shutdownable HTTP server that any binary (cmd/astra,
// astra-bench, experiments drivers, a future astra-server) mounts next
// to its work to make an in-flight plan or run watchable.
//
// Endpoints:
//
//	GET /metrics        live telemetry snapshot, Prometheus 0.0.4 text
//	GET /healthz        liveness probe
//	GET /debug/pprof/*  net/http/pprof (profiles carry the planner's
//	                    phase labels; see telemetry.DoPhase)
//	GET /events         flight-recorder events as Server-Sent Events
//	GET /frontier       anytime FrontierUpdate snapshots as SSE
//	GET /explain        the last published Plan.Explain() report
//	GET /qos            streaming QoS monitor snapshot (JSON); ?sse=1
//	                    streams risk/drift transitions as SSE
//	GET /audit          the last published model-accuracy audit
//	                    (text; ?format=json for the structured form)
//
// The server is observe-only, like the telemetry registry and flight
// recorder it fronts: mounting it never perturbs planning or simulated
// results. Streaming is pull-shaped and bounded — /events follows the
// recorder's ring by sequence number (ring overwrites surface as counted
// gaps, so a slow client can never grow server memory), and /frontier
// replays a bounded update log. Shutdown(ctx) stops the runtime sampler,
// releases every connected SSE client, and drains the HTTP server.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	httppprof "net/http/pprof"
	"strconv"
	"sync"
	"time"

	"astra/internal/api"
	"astra/internal/flight"
	"astra/internal/optimizer"
	"astra/internal/qos"
	"astra/internal/telemetry"
)

// Options configures a Server. The zero value is usable: a private
// registry, no flight recorder (404 on /events), no runtime sampler.
type Options struct {
	// Telemetry is the registry /metrics snapshots. Left nil, the server
	// creates a private one (so its own request counters still export).
	Telemetry *telemetry.Registry
	// Flight is the recorder /events follows. Nil disables /events.
	Flight *flight.Recorder
	// RuntimeMetrics starts the runtime/metrics sampler goroutine,
	// publishing astra_go_* gauges and histograms into the registry.
	RuntimeMetrics bool
}

// The /events follow-mode poll cadence, and the number of FrontierUpdates
// /frontier retains (older ones are dropped and counted).
const (
	pollEvery       = 25 * time.Millisecond
	frontierHistory = 64
)

// Server is one observability plane instance. Construct with NewServer,
// mount via Handler or Start, and always Shutdown when done.
type Server struct {
	reg      *telemetry.Registry
	rec      *flight.Recorder
	sampler  *Sampler
	frontier *updateLog

	mux *http.ServeMux
	// Listener provides Start, Addr and URL.
	*Listener

	closing   chan struct{}
	closeOnce sync.Once

	mu        sync.Mutex
	explain   string
	qos       *qos.Monitor
	audit     *flight.Audit
	auditText string
}

// NewServer builds a server over the given sources. The sampler (when
// requested) starts immediately, so registry scrapes show runtime health
// even before Start.
func NewServer(o Options) *Server {
	reg := o.Telemetry
	if reg == nil {
		reg = telemetry.New()
	}
	s := &Server{
		reg:      reg,
		rec:      o.Flight,
		frontier: newUpdateLog(frontierHistory, reg.Counter(telemetry.MObsSSEDropped)),
		mux:      http.NewServeMux(),
		closing:  make(chan struct{}),
	}
	s.Listener = NewListener(s.mux)
	if o.RuntimeMetrics {
		s.sampler = NewSampler(reg)
		s.sampler.Start()
	}
	s.handle("/healthz", s.handleHealthz)
	s.handle("/metrics", s.handleMetrics)
	s.handle("/explain", s.handleExplain)
	s.handle("/events", s.handleEvents)
	s.handle("/frontier", s.handleFrontier)
	s.handle("/qos", s.handleQoS)
	s.handle("/audit", s.handleAudit)
	s.handle("/debug/pprof/", httppprof.Index)
	s.handle("/debug/pprof/cmdline", httppprof.Cmdline)
	s.handle("/debug/pprof/profile", httppprof.Profile)
	s.handle("/debug/pprof/symbol", httppprof.Symbol)
	s.handle("/debug/pprof/trace", httppprof.Trace)
	return s
}

// handle mounts a handler behind a per-endpoint labeled request counter.
func (s *Server) handle(path string, h http.HandlerFunc) {
	counter := s.reg.Counter(telemetry.LabelSeries(telemetry.MObsHTTPRequests, "path", path))
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		counter.Inc()
		h(w, r)
	})
}

// Registry returns the registry backing /metrics (the one passed in
// Options, or the private default).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Handler exposes the route table for embedding into an existing server.
// Callers embedding the handler still own calling Shutdown to stop the
// sampler and release SSE clients.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown gracefully stops the plane: the runtime sampler exits, every
// SSE client is released (their handlers return, so active connections
// drain), and the HTTP server (when Start was used) shuts down within
// ctx. Safe to call more than once and without Start.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() {
		close(s.closing)
		s.frontier.close()
		if s.sampler != nil {
			s.sampler.Stop()
		}
	})
	return s.Listener.Shutdown(ctx)
}

// PublishExplain stores a plan's Explain() report for GET /explain.
func (s *Server) PublishExplain(report string) {
	s.mu.Lock()
	s.explain = report
	s.mu.Unlock()
}

// FrontierObserver adapts the server into a WithFrontierObserver
// callback: each anytime FrontierUpdate is rendered once and appended to
// the bounded /frontier log, where connected SSE clients pick it up.
// The callback is synchronous and cheap (one JSON marshal plus a locked
// append); it never blocks on slow clients.
func (s *Server) FrontierObserver() func(optimizer.FrontierUpdate) {
	return func(u optimizer.FrontierUpdate) {
		b, err := json.Marshal(api.FrontierUpdateOf(u))
		if err != nil {
			return
		}
		s.frontier.append(b)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

func (s *Server) handleExplain(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	report := s.explain
	s.mu.Unlock()
	if report == "" {
		http.Error(w, "no plan explained yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, report)
}

// sseFetch writes one endpoint's frames past the cursor to w and
// returns the cursor to resume from. wake is the channel to wait on
// before the next fetch (nil: poll at the server's cadence) and done
// reports that the source will produce no more frames.
type sseFetch func(w io.Writer, cursor int64) (next int64, wake <-chan struct{}, done bool)

// serveSSE is the one follow loop behind every SSE endpoint. It reads
// the shared query knobs — since (the resume cursor) and follow
// (live-tail; default true — follow=0 replays and closes, which is what
// scripted clients diffing two runs want) — counts the client, then
// fetches, flushes and, when following, waits for more until the client
// disconnects, the server shuts down or the source is done.
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, fetch sseFetch) {
	q := r.URL.Query()
	cursor, _ := strconv.ParseInt(q.Get("since"), 10, 64)
	follow := true
	if v := q.Get("follow"); v == "0" || v == "false" {
		follow = false
	}
	flusher := SSEHeaders(w)
	clients := s.reg.Gauge(telemetry.MObsSSEClients)
	clients.Add(1)
	defer clients.Add(-1)
	for {
		next, wake, done := fetch(w, cursor)
		cursor = next
		if flusher != nil {
			flusher.Flush()
		}
		if !follow || done {
			return
		}
		var poll <-chan time.Time
		if wake == nil {
			poll = time.After(pollEvery)
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.closing:
			return
		case <-wake:
		case <-poll:
		}
	}
}

// handleEvents streams the flight recorder as SSE frames (id = event
// sequence number, data = the event's deterministic JSON). The client's
// pace bounds nothing but its own connection: the handler polls
// EventsSince at the server's cadence, the ring keeps rotating, and any
// events the ring overwrote before the client caught up are surfaced as
// one ": gap ..." comment and counted in astra_obs_sse_dropped_total.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		http.Error(w, "no flight recorder mounted", http.StatusNotFound)
		return
	}
	dropped := s.reg.Counter(telemetry.MObsSSEDropped)
	s.serveSSE(w, r, func(w io.Writer, last int64) (int64, <-chan struct{}, bool) {
		evs := s.rec.EventsSince(last)
		if len(evs) > 0 && evs[0].Seq > last+1 && last > 0 {
			gap := evs[0].Seq - (last + 1)
			dropped.Add(gap)
			fmt.Fprintf(w, ": gap %d event(s) overwritten\n\n", gap)
		}
		for _, ev := range evs {
			b, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			WriteSSE(w, ev.Seq, b)
			last = ev.Seq
		}
		return last, nil, false
	})
}

// handleFrontier streams the bounded FrontierUpdate log as SSE frames
// (id = 1-based update index). follow=0 replays the log and closes;
// otherwise the handler waits for appends until the client disconnects,
// the server shuts down or the log is closed.
func (s *Server) handleFrontier(w http.ResponseWriter, r *http.Request) {
	s.serveSSE(w, r, func(w io.Writer, next int64) (int64, <-chan struct{}, bool) {
		// Capture the wake channel before reading, so an append racing
		// the read still closes the channel the loop blocks on.
		wake, closed := s.frontier.wait()
		frames, from, n := s.frontier.since(next)
		if from > next {
			fmt.Fprintf(w, ": gap %d update(s) dropped\n\n", from-next)
		}
		for i, b := range frames {
			WriteSSE(w, from+int64(i)+1, b)
		}
		return n, wake, closed
	})
}
