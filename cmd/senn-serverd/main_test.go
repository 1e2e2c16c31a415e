package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/wire"
)

// A client that opens a socket and never finishes its request must be cut
// off at the handshake deadline instead of holding a goroutine and a
// descriptor forever, while a WebSocket that was upgraded before the wait
// and idles through all of it keeps working: the deadline covers the header
// read only.
func TestHalfWrittenRequestIsClosed(t *testing.T) {
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1000, 1000)}
	mod := sim.NewServerModule(sim.RandomPOIs(200, bounds, rand.New(rand.NewSource(1))), 30)
	srv := newHTTPServer("127.0.0.1:0", serve.NewServer(mod, serve.Options{}).Handler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want the %v handshake deadline", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	bound := readHeaderTimeout
	if testing.Short() {
		// Same server, same mechanism, a deadline short enough for -short.
		bound = 300 * time.Millisecond
		srv.ReadHeaderTimeout = bound
	}
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-served; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v", err)
		}
	})
	addr := ln.Addr().String()

	ws := openSession(t, addr)
	defer ws.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A request line and one header, but never the blank line that ends them.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: senn\r\n"); err != nil {
		t.Fatal(err)
	}
	const slack = 3 * time.Second
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(bound + slack)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	elapsed := time.Since(start)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("server still holds the half-written request after %v (deadline %v)", elapsed, bound)
	}
	if elapsed < bound/2 {
		t.Fatalf("connection closed after %v, well before the %v deadline: not the header timeout", elapsed, bound)
	}

	// The WebSocket sat idle for the whole wait and must be unaffected.
	if err := ws.WriteBinary(wire.AppendQuery(nil, wire.Query{ReqID: 1, K: 3, Loc: geom.Pt(500, 500)})); err != nil {
		t.Fatal(err)
	}
	if err := ws.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	data, err := ws.ReadMessage()
	if err != nil {
		t.Fatalf("WebSocket idle for %v did not survive: %v", elapsed, err)
	}
	if msg, err := wire.Decode(data); err != nil || msg.Type != wire.TypeAnswer || len(msg.Answer.Cache.Neighbors) != 3 {
		t.Fatalf("query after the idle got %+v, %v", msg, err)
	}
}

// openSession POSTs /v1/session and dials the query WebSocket.
func openSession(t *testing.T, addr string) *serve.WSConn {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/v1/session", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Session string `json:"session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	ws, err := serve.DialWS("ws://" + addr + "/v1/ws?session=" + doc.Session)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}
