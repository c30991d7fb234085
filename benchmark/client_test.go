package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// The hand-written client against a real net/http server: a body with a
// Content-Length, a chunked SSE stream, the timing headers, an error
// status, and several requests over one connection.
func TestClientAgainstNetHTTP(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Astra-Cache", "miss")
		w.Header().Set("X-Astra-Queue-Ns", "1500")
		w.Header().Set("X-Astra-Service-Ns", "250000")
		fmt.Fprintf(w, "tenant=%s body=%s", r.Header.Get("X-Astra-Tenant"), body)
	})
	mux.HandleFunc("GET /v1/frontier", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		for k := 1; k <= 3; k++ {
			fmt.Fprintf(w, "id: %d\ndata: {\"k\":%d}\n\n", k, k)
			w.(http.Flusher).Flush()
		}
	})
	mux.HandleFunc("GET /big", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, strings.Repeat("x", 200<<10)) // longer than the read buffer
	})
	mux.HandleFunc("GET /nope", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"no"}`, http.StatusTooManyRequests)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")

	c, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	for round := 0; round < 3; round++ {
		resp, err := c.do(&request{Method: "POST", Path: "/v1/plan", Tenant: 5, Body: []byte(`{"a":1}`)})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != 200 || string(resp.Body) != `tenant=t5 body={"a":1}` {
			t.Fatalf("plan: %d %q", resp.Status, resp.Body)
		}
		if resp.Cache != "miss" || resp.QueueNs != 1500 || resp.ServiceNs != 250000 {
			t.Fatalf("headers: cache %q queue %d service %d", resp.Cache, resp.QueueNs, resp.ServiceNs)
		}
		if resp.FirstByte <= 0 || resp.Total < resp.FirstByte || resp.Start.IsZero() {
			t.Fatalf("timing: first byte %v, total %v", resp.FirstByte, resp.Total)
		}

		resp, err = c.do(&request{Method: "GET", Path: "/v1/frontier"})
		if err != nil {
			t.Fatal(err)
		}
		want := "id: 1\ndata: {\"k\":1}\n\nid: 2\ndata: {\"k\":2}\n\nid: 3\ndata: {\"k\":3}\n\n"
		if resp.Status != 200 || string(resp.Body) != want {
			t.Fatalf("stream: %d %q", resp.Status, resp.Body)
		}

		resp, err = c.do(&request{Method: "GET", Path: "/big"})
		if err != nil || len(resp.Body) != 200<<10 {
			t.Fatalf("big: %d bytes, %v", len(resp.Body), err)
		}

		resp, err = c.do(&request{Method: "GET", Path: "/nope"})
		if err != nil || resp.Status != 429 || !strings.Contains(string(resp.Body), "no") {
			t.Fatalf("error status: %d %q %v", resp.Status, resp.Body, err)
		}
	}
	if _, err := get(addr, "/nope"); err == nil {
		t.Error("get accepted a 429")
	}
	if resp, err := get(addr, "/big"); err != nil || len(resp.Body) != 200<<10 {
		t.Errorf("get /big: %d bytes, %v", len(resp.Body), err)
	}
}

// A request on a connection the server has closed fails, and the next do
// redials.
func TestClientRedialsAfterFailure(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		fmt.Fprint(w, "bye")
	}))
	defer ts.Close()
	c, err := dial(strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if resp, err := c.do(&request{Method: "GET", Path: "/"}); err != nil || string(resp.Body) != "bye" {
		t.Fatalf("first: %q %v", resp.Body, err)
	}
	if _, err := c.do(&request{Method: "GET", Path: "/"}); err == nil {
		t.Fatal("request on a closed connection succeeded")
	}
	c.close()
	if resp, err := c.do(&request{Method: "GET", Path: "/"}); err != nil || string(resp.Body) != "bye" {
		t.Fatalf("after redial: %q %v", resp.Body, err)
	}
}
