package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"astra/internal/flight"
	"astra/internal/qos"
)

// PublishQoS mounts (or swaps) the streaming QoS monitor served on /qos.
// Like PublishExplain, this is a cheap pointer swap — callers typically
// publish the monitor right after building it for a run.
func (s *Server) PublishQoS(m *qos.Monitor) {
	s.mu.Lock()
	s.qos = m
	s.mu.Unlock()
}

// PublishAudit stores a run's model-accuracy audit for GET /audit. The
// text render is produced once here so every request serves the same
// bytes.
func (s *Server) PublishAudit(a *flight.Audit) {
	if a == nil {
		return
	}
	text := a.Render()
	s.mu.Lock()
	s.audit, s.auditText = a, text
	s.mu.Unlock()
}

// handleQoS serves the streaming QoS monitor: by default one JSON
// snapshot (state, projected JCT, slack, per-stage drift scores, cost
// burn, transition history); with ?sse=1 an SSE stream of risk/drift
// transitions (id = transition sequence number, resumable via since,
// follow=0 replays and closes).
func (s *Server) handleQoS(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	mon := s.qos
	s.mu.Unlock()
	if mon == nil {
		http.Error(w, "no qos monitor mounted", http.StatusNotFound)
		return
	}
	if v := r.URL.Query().Get("sse"); v == "" || v == "0" || v == "false" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(mon.Snapshot())
		return
	}
	s.serveSSE(w, r, func(w io.Writer, last int64) (int64, <-chan struct{}, bool) {
		for _, tr := range mon.TransitionsSince(int(last)) {
			b, err := json.Marshal(tr)
			if err != nil {
				continue
			}
			WriteSSE(w, int64(tr.Seq), b)
			last = int64(tr.Seq)
		}
		return last, nil, false
	})
}

// handleAudit serves the last published model-accuracy audit: the text
// render by default, the structured audit as JSON with ?format=json.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	audit, text := s.audit, s.auditText
	s.mu.Unlock()
	if audit == nil {
		http.Error(w, "no audit published yet", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(audit)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, text)
}
