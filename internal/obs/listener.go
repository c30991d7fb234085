package obs

import (
	"context"
	"net"
	"net/http"
	"time"
)

// A client gets readHeaderTimeout to send a request's headers and may
// hold an idle keep-alive connection for idleTimeout; past either the
// connection is closed, so a slow or silent client cannot pin one open.
// There is no write timeout: an SSE stream stays open for as long as
// its client follows it. Variables so a test can shorten them.
var (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Listener is the listen/serve/drain lifecycle of one HTTP plane. The
// observability Server and the control-plane server both embed it, which
// is where their Start, Addr and URL come from; each wraps Shutdown in
// its own to release what it owns first.
type Listener struct {
	handler http.Handler
	srv     *http.Server
	ln      net.Listener
	done    chan struct{}
}

// NewListener prepares a lifecycle that will serve h.
func NewListener(h http.Handler) *Listener { return &Listener{handler: h} }

// Start listens on addr (host:port; port 0 picks a free one) and serves
// in a background goroutine until Shutdown.
func (l *Listener) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	l.ln = ln
	l.srv = &http.Server{Handler: l.handler, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	l.done = make(chan struct{})
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // http.ErrServerClosed on Shutdown
	}()
	return nil
}

// Addr reports the bound listen address ("" before Start).
func (l *Listener) Addr() string {
	if l.ln == nil {
		return ""
	}
	return l.ln.Addr().String()
}

// URL is the server's base URL ("" before Start).
func (l *Listener) URL() string {
	if l.ln == nil {
		return ""
	}
	return "http://" + l.Addr()
}

// Shutdown drains the HTTP server within ctx and waits for the serving
// goroutine to exit. A no-op without Start.
func (l *Listener) Shutdown(ctx context.Context) error {
	if l.srv == nil {
		return nil
	}
	if err := l.srv.Shutdown(ctx); err != nil {
		return err
	}
	select {
	case <-l.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
