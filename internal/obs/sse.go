package obs

import (
	"fmt"
	"io"
	"net/http"
	"sync"

	"astra/internal/telemetry"
)

// updateLog is a bounded, append-only log of pre-rendered SSE payloads
// with absolute indexing: entry i keeps index i forever, even after the
// bound pushes it out, so clients resume by index and dropped prefixes
// are detectable (and counted) rather than silently reread. It backs
// /frontier; appends come from the sweep's observer callback, reads from
// any number of SSE handlers.
type updateLog struct {
	mu      sync.Mutex
	cap     int
	start   int64 // absolute index of frames[0]
	frames  [][]byte
	closed  bool
	wake    chan struct{} // closed on append/close, then renewed
	dropped *telemetry.Counter
}

func newUpdateLog(capacity int, dropped *telemetry.Counter) *updateLog {
	if capacity <= 0 {
		capacity = 64
	}
	return &updateLog{cap: capacity, wake: make(chan struct{}), dropped: dropped}
}

// append adds one payload, evicting the oldest past the bound.
func (l *updateLog) append(b []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.frames = append(l.frames, b)
	if len(l.frames) > l.cap {
		evict := len(l.frames) - l.cap
		l.frames = append([][]byte(nil), l.frames[evict:]...)
		l.start += int64(evict)
		l.dropped.Add(int64(evict))
	}
	close(l.wake)
	l.wake = make(chan struct{})
}

// since returns the retained payloads with absolute index >= from, the
// absolute index of the first returned payload, and the index to resume
// from next. The returned slice aliases immutable payloads.
func (l *updateLog) since(from int64) (frames [][]byte, first, next int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.start {
		from = l.start
	}
	i := from - l.start
	if i >= int64(len(l.frames)) {
		return nil, from, from
	}
	out := make([][]byte, len(l.frames)-int(i))
	copy(out, l.frames[i:])
	return out, from, l.start + int64(len(l.frames))
}

// wait returns a channel closed on the next append, plus whether the log
// is already closed (no more appends will come).
func (l *updateLog) wait() (<-chan struct{}, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wake, l.closed
}

// close marks the log final and wakes every waiter.
func (l *updateLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	close(l.wake)
	l.wake = make(chan struct{})
}

// SSEHeaders marks the response as an event stream and returns the
// flusher (nil when the ResponseWriter cannot stream). It sets no
// Connection header: HTTP/1.1 connections persist by default.
func SSEHeaders(w http.ResponseWriter) http.Flusher {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	f, _ := w.(http.Flusher)
	return f
}

// WriteSSE writes one Server-Sent Events frame: the id line clients
// resume from, and one line of data.
func WriteSSE(w io.Writer, id int64, data []byte) {
	fmt.Fprintf(w, "id: %d\ndata: %s\n\n", id, data)
}
