package main

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/wire"
)

// A client that opens a socket and never finishes its request must be cut
// off at the handshake deadline instead of holding a goroutine and a
// descriptor forever — whether the request line is an HTTP route's or the
// query channel's, both of which the daemon reads itself — while a session
// that was admitted before the wait and idles through all of it keeps
// working: the deadline covers the head only.
func TestHalfWrittenRequestIsClosed(t *testing.T) {
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1000, 1000)}
	mod := sim.NewServerModule(sim.RandomPOIs(200, bounds, rand.New(rand.NewSource(1))), 30)
	s := serve.NewServer(mod, serve.Options{})
	if headTimeout <= 0 {
		t.Fatalf("headTimeout = %v, want a handshake deadline", headTimeout)
	}
	bound := headTimeout
	if testing.Short() {
		// Same server, same mechanism, a deadline short enough for -short.
		bound = 300 * time.Millisecond
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln, bound) }()
	t.Cleanup(func() {
		ln.Close()
		if err := <-served; !errors.Is(err, net.ErrClosed) {
			t.Errorf("Serve returned %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	addr := ln.Addr().String()

	ws := openSession(t, addr)
	defer ws.Close()

	// A request line and one header, but never the blank line that ends them.
	heads := []string{
		"GET /healthz HTTP/1.1\r\nHost: senn\r\n",
		"GET /v1/ws HTTP/1.1\r\nHost: senn\r\n",
	}
	conns := make([]net.Conn, len(heads))
	start := time.Now()
	for i, h := range heads {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, h); err != nil {
			t.Fatal(err)
		}
		conns[i] = conn
	}
	const slack = 3 * time.Second
	var elapsed time.Duration
	for i, conn := range conns {
		if err := conn.SetReadDeadline(start.Add(bound + slack)); err != nil {
			t.Fatal(err)
		}
		_, err = io.ReadAll(conn)
		elapsed = time.Since(start)
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("%q: server still holds the half-written request after %v (deadline %v)", heads[i], elapsed, bound)
		}
		if elapsed < bound/2 {
			t.Fatalf("%q: connection closed after %v, well before the %v deadline: not the header timeout", heads[i], elapsed, bound)
		}
	}

	// The session sat idle for the whole wait and must be unaffected.
	if err := ws.WriteBinary(wire.AppendQuery(nil, wire.Query{ReqID: 1, K: 3, Loc: geom.Pt(500, 500)})); err != nil {
		t.Fatal(err)
	}
	if err := ws.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	data, err := ws.ReadMessage()
	if err != nil {
		t.Fatalf("session idle for %v did not survive: %v", elapsed, err)
	}
	if msg, err := wire.Decode(data); err != nil || msg.Type != wire.TypeAnswer || len(msg.Answer.Cache.Neighbors) != 3 {
		t.Fatalf("query after the idle got %+v, %v", msg, err)
	}
}

// -mkstore writes exactly one draw from the seed: the clustered set for
// -clusters > 0, the uniform set for -clusters 0, each from a fresh
// generator.
func TestMakeStoreDrawsOneSet(t *testing.T) {
	const n, fanout, width, seed = 2000, 30, 20000.0, 7
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(width, width)}
	for _, clusters := range []int{0, 16} {
		want := sim.RandomPOIs(n, bounds, rand.New(rand.NewSource(seed)))
		if clusters > 0 {
			want = sim.ClusteredPOIs(n, bounds, clusters, 400, rand.New(rand.NewSource(seed)))
		}
		path := filepath.Join(t.TempDir(), "pois.senp")
		if err := makeStore(path, n, fanout, width, clusters, seed); err != nil {
			t.Fatal(err)
		}
		info, got, err := serve.ReadStore(path)
		if err != nil {
			t.Fatal(err)
		}
		if info != (serve.StoreInfo{Count: n, Fanout: fanout, Bounds: bounds}) {
			t.Errorf("clusters %d: store header %+v", clusters, info)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("clusters %d: the store's POIs are not the seed's one draw", clusters)
		}
	}
}

// openSession dials the query channel, which is the session.
func openSession(t *testing.T, addr string) *serve.WSConn {
	t.Helper()
	ws, err := serve.DialWS("ws://" + addr + "/v1/ws")
	if err != nil {
		t.Fatal(err)
	}
	return ws
}
