package obs

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestHalfHeaderClientIsDisconnected: a client that sends part of a
// request's headers and then stalls (slow loris) has its connection
// closed once the header timeout passes, without a response; a client
// that sends its headers promptly is served.
func TestHalfHeaderClientIsDisconnected(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond
	l := NewListener(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	if err := l.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer l.Shutdown(context.Background())

	conn, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: astra\r\nX-Slow:"); err != nil {
		t.Fatal(err)
	}
	// Without the header timeout the server waits for the rest forever,
	// and this read ends at the client's own deadline instead.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, err := conn.Read(make([]byte, 64))
	if !errors.Is(err, io.EOF) {
		t.Fatalf("half-header client: read %d bytes, err %v; want the server to close the connection (EOF)", n, err)
	}

	resp, err := http.Get(l.URL())
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(body) != "ok" {
		t.Fatalf("prompt client: body %q, err %v", body, err)
	}
}
