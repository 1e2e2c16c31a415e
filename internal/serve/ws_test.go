package serve

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// A handshake DialWS cannot complete fails the dial and closes the socket
// it opened: the server, having answered, reads EOF instead of a socket
// left open until its deadline.
func TestDialWSHandshakeFailures(t *testing.T) {
	cases := []struct {
		name    string
		respond func(conn net.Conn, w *bufio.Writer)
	}{
		{"non-101 status", func(_ net.Conn, w *bufio.Writer) {
			w.WriteString("HTTP/1.1 403 Forbidden\r\nContent-Length: 4\r\n\r\nnope")
		}},
		{"wrong upgrade token", func(_ net.Conn, w *bufio.Writer) {
			w.WriteString("HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n\r\n")
		}},
		{"closed mid-handshake", func(conn net.Conn, w *bufio.Writer) {
			w.WriteString("HTTP/1.1 101 Switching Protocols\r\nUpgr")
			w.Flush()
			conn.(*net.TCPConn).CloseWrite()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			serverRead := make(chan error, 1)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					serverRead <- err
					return
				}
				defer conn.Close()
				br := bufio.NewReader(conn)
				if _, err := http.ReadRequest(br); err != nil {
					serverRead <- err
					return
				}
				w := bufio.NewWriter(conn)
				tc.respond(conn, w)
				w.Flush()
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				_, err = br.ReadByte()
				serverRead <- err
			}()
			if ws, err := DialWS("ws://" + ln.Addr().String()); err == nil {
				ws.Close()
				t.Fatal("DialWS succeeded")
			}
			if err := <-serverRead; err != io.EOF {
				t.Fatalf("server read %v after the failed dial, want EOF", err)
			}
		})
	}
}

// wsServer admits query-channel handshakes on a plain loopback listener with
// the daemon's admission and runs serve on each admitted connection's
// goroutine instead of a session. It returns the query channel's ws:// URL.
func wsServer(t *testing.T, serve func(*WSConn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	s := &Server{}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				ws := &WSConn{conn: conn, writeTimeout: dialWriteTimeout}
				if s.admit(ws, testHandshakeTimeout) {
					serve(ws)
				}
			}()
		}
	}()
	return "ws://" + ln.Addr().String() + "/v1/ws"
}

// echoServer echoes every binary message back; it returns the URL to dial.
func echoServer(t *testing.T) string {
	t.Helper()
	return wsServer(t, func(ws *WSConn) {
		defer ws.Close()
		for {
			data, err := ws.ReadMessage()
			if err != nil {
				return
			}
			if err := ws.WriteBinary(data); err != nil {
				return
			}
		}
	})
}

func wsURL(srv *testHTTP) string {
	return "ws" + strings.TrimPrefix(srv.URL, "http")
}

// Echo payloads from empty to past a 16-bit length, across the inline read
// buffer and the payload chunk, round-trip byte for byte.
func TestEchoAcrossLengthEncodings(t *testing.T) {
	ws, err := DialWS(echoServer(t))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer ws.Close()

	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 125, 126, 127, 4096, 65535, 65536, 70000} {
		msg := make([]byte, n)
		rng.Read(msg)
		if err := ws.WriteBinary(msg); err != nil {
			t.Fatalf("write %d bytes: %v", n, err)
		}
		got, err := ws.ReadMessage()
		if err != nil {
			t.Fatalf("read %d bytes: %v", n, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("echo of %d bytes corrupted", n)
		}
	}
}

// A request for /v1/ws that does not upgrade is a 400, and one that upgrades
// to any protocol but senn/1 a 426 that names senn/1; a head too long for
// the connection's read buffer is a 431, and a method other than GET a 405.
func TestUpgradeRejections(t *testing.T) {
	_, srv := testServerHandle(t, 100, Options{})

	cases := []struct {
		name   string
		mangle func(*http.Request)
		want   int
	}{
		{"plain GET", func(r *http.Request) {
			r.Header.Del("Upgrade")
			r.Header.Del("Connection")
		}, http.StatusBadRequest},
		{"no upgrade header", func(r *http.Request) {
			r.Header.Del("Upgrade")
		}, http.StatusBadRequest},
		{"wrong version", func(r *http.Request) {
			r.Header.Set("Upgrade", "senn/2")
		}, http.StatusUpgradeRequired},
		{"websocket", func(r *http.Request) {
			r.Header.Set("Upgrade", "websocket")
		}, http.StatusUpgradeRequired},
		{"head over the cap", func(r *http.Request) {
			r.Header.Set("X-Padding", strings.Repeat("x", maxHead))
		}, http.StatusRequestHeaderFieldsTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/ws", nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Upgrade", upgradeToken)
			req.Header.Set("Connection", "Upgrade")
			tc.mangle(req)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("request: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
			if up := resp.Header.Get("Upgrade"); tc.want == http.StatusUpgradeRequired && up != upgradeToken {
				t.Fatalf("426 names Upgrade %q, want %q", up, upgradeToken)
			}
		})
	}

	t.Run("POST", func(t *testing.T) {
		resp, err := http.Post(srv.URL+"/v1/ws", "application/octet-stream", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodGet {
			t.Fatalf("status = %d, Allow %q; want %d, GET", resp.StatusCode, resp.Header.Get("Allow"), http.StatusMethodNotAllowed)
		}
	})
}

// Concurrent writers on one connection must not interleave frame bytes; the
// reader must get every message back intact.
func TestConcurrentWritersDoNotInterleave(t *testing.T) {
	ws, err := DialWS(echoServer(t))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer ws.Close()

	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			msg := bytes.Repeat([]byte{byte('a' + w)}, 100+w)
			for i := 0; i < perWriter; i++ {
				if err := ws.WriteBinary(msg); err != nil {
					return
				}
			}
		}(w)
	}

	for i := 0; i < writers*perWriter; i++ {
		got, err := ws.ReadMessage()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if len(got) < 100 || len(got) > 100+writers {
			t.Fatalf("read %d: %d bytes, outside writer sizes", i, len(got))
		}
		for _, b := range got[1:] {
			if b != got[0] {
				t.Fatalf("read %d: interleaved frame payload", i)
			}
		}
	}
	wg.Wait()
}

// upgradedPair returns the two ends of one live connection: the server side
// as the daemon's handshake admits it and the DialWS client. The server
// goroutine parks until the test ends, so the test drives both ends itself.
func upgradedPair(t *testing.T) (server, client *WSConn) {
	t.Helper()
	conns := make(chan *WSConn, 1)
	done := make(chan struct{})
	url := wsServer(t, func(ws *WSConn) {
		defer ws.Close()
		conns <- ws
		<-done
	})
	t.Cleanup(func() { close(done) })
	client, err := DialWS(url)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	server = <-conns
	// A lost message must fail the test's reads, not hang them.
	deadline := time.Now().Add(10 * time.Second)
	server.SetReadDeadline(deadline)
	client.SetReadDeadline(deadline)
	return server, client
}

// BenchmarkWriteBinaryLoopback prices one message write on a loopback
// socket whose peer drains everything, the per-write deadline included (one
// runtime timer update): a probe-sized message per op.
func BenchmarkWriteBinaryLoopback(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(io.Discard, c)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	ws := &WSConn{conn: conn, writeTimeout: time.Minute}
	defer ws.Close()
	frame := make([]byte, wire.PeerProbeSize)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := ws.WriteBinary(frame); err != nil {
			b.Fatal(err)
		}
	}
}
