package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// A minimal HTTP/1.1 client over one persistent connection. The load
// generator shares two cores with the server it measures, so the client
// must cost little and add no scheduling of its own: no per-connection
// goroutines, no allocation per header, and the clock read exactly where
// the metric is defined — before the first request byte is written,
// when the first body byte is readable, and after the last body byte.

// clientTimeout bounds one request; past it the request is a failure.
const clientTimeout = 10 * time.Second

// response is one parsed response and its client-side timing.
type response struct {
	Status    int
	Cache     string // X-Astra-Cache
	QueueNs   int64  // X-Astra-Queue-Ns
	ServiceNs int64  // X-Astra-Service-Ns
	// Timed reports whether the response carried X-Astra-Service-Ns; SSE
	// streams and SLO reads do not.
	Timed bool
	// Body is the whole body; for an SSE stream, the concatenated frames.
	// It aliases the connection's buffer and is valid until the next do.
	Body      []byte
	Start     time.Time     // just before the first request byte is written
	FirstByte time.Duration // send -> first body byte
	Total     time.Duration // send -> last body byte
}

// conn is one keep-alive connection to the server.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	out  []byte // request scratch
	body []byte // response body scratch
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, clientTimeout)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() {
	if c.c != nil {
		_ = c.c.Close() // nothing buffered to lose: every request was answered or abandoned
		c.c = nil
	}
}

// redial replaces a connection a failed request left in an unknown state.
func (c *conn) redial() error {
	c.close()
	n, err := dial(c.addr)
	if err != nil {
		return err
	}
	c.c, c.br = n.c, n.br
	return nil
}

// render writes the request's wire form into the connection's scratch.
func (c *conn) render(r *request) {
	b := c.out[:0]
	b = append(b, r.Method...)
	b = append(b, ' ')
	b = append(b, r.Path...)
	b = append(b, " HTTP/1.1\r\nHost: astra\r\nX-Astra-Tenant: t"...)
	b = strconv.AppendInt(b, int64(r.Tenant), 10)
	if r.Method == "POST" {
		b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(r.Body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, r.Body...)
	c.out = b
}

// do sends one request and reads its response. The request is rendered
// before the clock starts. An error leaves the connection unusable;
// the caller redials.
func (c *conn) do(r *request) (response, error) {
	var resp response
	if c.c == nil {
		if err := c.redial(); err != nil {
			return resp, err
		}
	}
	c.render(r)
	start := time.Now()
	resp.Start = start
	if err := c.c.SetDeadline(start.Add(clientTimeout)); err != nil {
		return resp, err
	}
	if _, err := c.c.Write(c.out); err != nil {
		return resp, err
	}
	contentLength, chunked, err := c.readHead(&resp)
	if err != nil {
		return resp, err
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		err = c.readChunked(start, &resp)
	case contentLength > 0:
		if _, err = c.br.Peek(1); err == nil {
			resp.FirstByte = time.Since(start)
			c.body = extend(c.body, contentLength)
			_, err = io.ReadFull(c.br, c.body)
		}
	default:
		resp.FirstByte = time.Since(start)
	}
	if err != nil {
		return resp, err
	}
	resp.Total = time.Since(start)
	resp.Body = c.body
	return resp, nil
}

// extend grows b by n bytes without a temporary.
func extend(b []byte, n int) []byte {
	if cap(b)-len(b) < n {
		nb := make([]byte, len(b), 2*cap(b)+n)
		copy(nb, b)
		b = nb
	}
	return b[:len(b)+n]
}

// readHead parses the status line and the headers the benchmark reads.
func (c *conn) readHead(resp *response) (contentLength int, chunked bool, err error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, false, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, false, fmt.Errorf("bad status line %q", line)
	}
	if resp.Status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, false, fmt.Errorf("bad status line %q", line)
	}
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, false, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			return contentLength, chunked, nil
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return 0, false, fmt.Errorf("bad header line %q", line)
		}
		name, value := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			contentLength, err = strconv.Atoi(string(value))
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("X-Astra-Cache")):
			resp.Cache = string(value)
		case bytes.EqualFold(name, []byte("X-Astra-Queue-Ns")):
			resp.QueueNs, err = strconv.ParseInt(string(value), 10, 64)
		case bytes.EqualFold(name, []byte("X-Astra-Service-Ns")):
			resp.ServiceNs, err = strconv.ParseInt(string(value), 10, 64)
			resp.Timed = true
		}
		if err != nil {
			return 0, false, fmt.Errorf("bad header line %q", line)
		}
	}
}

// readChunked reads a chunked body to its terminating chunk. The server
// flushes each SSE frame as its own chunk, so the first chunk's arrival
// is the first anytime frame.
func (c *conn) readChunked(start time.Time, resp *response) error {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, err := strconv.ParseInt(string(bytes.TrimRight(line, "\r\n")), 16, 32)
		if err != nil {
			return fmt.Errorf("bad chunk size %q", line)
		}
		if size == 0 {
			// No trailers are sent; the blank line ends the body.
			if _, err := c.br.ReadSlice('\n'); err != nil {
				return err
			}
			if resp.FirstByte == 0 {
				resp.FirstByte = time.Since(start)
			}
			return nil
		}
		if resp.FirstByte == 0 {
			if _, err := c.br.Peek(1); err != nil {
				return err
			}
			resp.FirstByte = time.Since(start)
		}
		n := len(c.body)
		c.body = extend(c.body, int(size))
		if _, err := io.ReadFull(c.br, c.body[n:]); err != nil {
			return err
		}
		if _, err := c.br.Discard(2); err != nil { // the chunk's CRLF
			return err
		}
	}
}

// get fetches path once over a fresh connection; set-up and scrapes use
// it, never the timed loop.
func get(addr, path string) (response, error) {
	c, err := dial(addr)
	if err != nil {
		return response{}, err
	}
	defer c.close()
	resp, err := c.do(&request{Method: "GET", Path: path})
	if err != nil {
		return resp, err
	}
	if resp.Status != 200 {
		return resp, errors.New("GET " + path + ": status " + strconv.Itoa(resp.Status))
	}
	resp.Body = append([]byte(nil), resp.Body...)
	return resp, nil
}
