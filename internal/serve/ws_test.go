package serve

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// RFC 6455 §1.3's worked example pins the accept-key derivation.
func TestAcceptKeyRFCVector(t *testing.T) {
	got := acceptKey("dGhlIHNhbXBsZSBub25jZQ==")
	want := "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
	if got != want {
		t.Fatalf("acceptKey = %q, want %q", got, want)
	}
}

// echoServer upgrades and echoes every binary message back.
func echoServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ws, err := Upgrade(w, r)
		if err != nil {
			return
		}
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
	}))
	t.Cleanup(srv.Close)
	return srv
}

func wsURL(srv *httptest.Server) string {
	return "ws" + strings.TrimPrefix(srv.URL, "http")
}

// Echo payloads sized to exercise all three frame length encodings (7-bit,
// 16-bit, 64-bit) and fragment-free round-tripping of masked client frames.
func TestEchoAcrossLengthEncodings(t *testing.T) {
	srv := echoServer(t)
	ws, err := DialWS(wsURL(srv))
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

// Closing the client side must complete the close handshake: the server's
// reader sees ErrConnClosed, not a protocol or transport error.
func TestCloseHandshake(t *testing.T) {
	gotErr := make(chan error, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ws, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer ws.Close()
		_, err = ws.ReadMessage()
		gotErr <- err
	}))
	t.Cleanup(srv.Close)

	ws, err := DialWS(wsURL(srv))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := ws.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := <-gotErr; err != ErrConnClosed {
		t.Fatalf("server read error = %v, want ErrConnClosed", err)
	}
}

// A server must reject upgrade attempts that are not proper WebSocket
// handshakes, with the HTTP status the RFC prescribes.
func TestUpgradeRejections(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		Upgrade(w, r)
	}))
	t.Cleanup(srv.Close)

	cases := []struct {
		name   string
		mangle func(*http.Request)
		want   int
	}{
		{"plain GET", func(r *http.Request) {
			r.Header.Del("Upgrade")
			r.Header.Del("Connection")
		}, http.StatusBadRequest},
		{"wrong version", func(r *http.Request) {
			r.Header.Set("Sec-WebSocket-Version", "8")
		}, http.StatusUpgradeRequired},
		{"missing key", func(r *http.Request) {
			r.Header.Del("Sec-WebSocket-Key")
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodGet, srv.URL, nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Upgrade", "websocket")
			req.Header.Set("Connection", "Upgrade")
			req.Header.Set("Sec-WebSocket-Version", "13")
			req.Header.Set("Sec-WebSocket-Key", "dGhlIHNhbXBsZSBub25jZQ==")
			tc.mangle(req)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("request: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}

	t.Run("POST", func(t *testing.T) {
		resp, err := http.Post(srv.URL, "application/octet-stream", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want %d", resp.StatusCode, http.StatusMethodNotAllowed)
		}
	})
}

// Concurrent writers on one connection must not interleave frame bytes; the
// reader must get every message back intact.
func TestConcurrentWritersDoNotInterleave(t *testing.T) {
	srv := echoServer(t)
	ws, err := DialWS(wsURL(srv))
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
// as Upgrade made it (write batching armed) and the DialWS client. The
// handler parks until the test ends, so the test drives both ends itself.
func upgradedPair(t *testing.T) (server, client *WSConn) {
	t.Helper()
	conns := make(chan *WSConn, 1)
	done := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ws, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer ws.Close()
		conns <- ws
		<-done
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(done) })
	client, err := DialWS(wsURL(srv))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	server = <-conns
	// A lost flush must fail the test's reads, not hang them.
	deadline := time.Now().Add(10 * time.Second)
	server.SetReadDeadline(deadline)
	client.SetReadDeadline(deadline)
	return server, client
}

// pendingBytes reports how many encoded bytes c is holding back.
func pendingBytes(c *WSConn) int {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return len(c.pending)
}

// expectMessages reads len(want) messages from c and requires them in order.
func expectMessages(t *testing.T, c *WSConn, want ...string) {
	t.Helper()
	for i, w := range want {
		got, err := c.ReadMessage()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if string(got) != w {
			t.Fatalf("read %d: got %q, want %q", i, got, w)
		}
	}
}

// Frames queued below the threshold stay in the pending buffer until the
// connection's own reader is about to block: ReadMessage's pre-block flush is
// what delivers a coalesced reply when no further write comes.
func TestBatchedWritesFlushBeforeReaderBlocks(t *testing.T) {
	server, client := upgradedPair(t)
	for _, m := range []string{"a", "b"} {
		if err := server.WriteBinaryBatched([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	if n := pendingBytes(server); n == 0 || n >= flushThreshold {
		t.Fatalf("%d bytes pending after two small batched writes, want them held back", n)
	}
	read := make(chan string, 1)
	go func() {
		got, _ := server.ReadMessage() // flushes, then blocks until the client writes
		read <- string(got)
	}()
	expectMessages(t, client, "a", "b")
	// A DialWS connection is not batched: the same call flushes at once.
	if err := client.WriteBinaryBatched([]byte("c")); err != nil {
		t.Fatal(err)
	}
	if got := <-read; got != "c" {
		t.Fatalf("server read %q, want %q", got, "c")
	}
}

// An immediate write drains the queued frames ahead of itself, so transport
// order is call order with no read on the writing side.
func TestImmediateWriteDrainsBatchedFramesInOrder(t *testing.T) {
	server, client := upgradedPair(t)
	if err := server.WriteBinaryBatched([]byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := server.WriteBinaryBatched([]byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := server.WriteBinary([]byte("3")); err != nil {
		t.Fatal(err)
	}
	if n := pendingBytes(server); n != 0 {
		t.Fatalf("%d bytes still pending after an immediate write", n)
	}
	expectMessages(t, client, "1", "2", "3")
}

// Crossing flushThreshold flushes by itself: neither a read nor an immediate
// write is needed once enough bytes are pending.
func TestBatchedWritesFlushAtThreshold(t *testing.T) {
	server, client := upgradedPair(t)
	frame := strings.Repeat("x", 512)
	got := make(chan error, 1)
	go func() { // concurrent reader: the flush must not wait for it
		for i := 0; i < 4; i++ {
			m, err := client.ReadMessage()
			if err == nil && string(m) != frame {
				err = ErrProtocol
			}
			if err != nil {
				got <- err
				return
			}
		}
		got <- nil
	}()
	for i := 1; i <= 4; i++ {
		if err := server.WriteBinaryBatched([]byte(frame)); err != nil {
			t.Fatal(err)
		}
		held := i * (len(frame) + 4) // 4-byte header: 16-bit extended length
		switch n := pendingBytes(server); {
		case held < flushThreshold && n != held:
			t.Fatalf("after %d frames: %d bytes pending, want %d held back", i, n, held)
		case held >= flushThreshold && n != 0:
			t.Fatalf("after %d frames (%d bytes): %d bytes still pending past the threshold", i, held, n)
		}
	}
	if err := <-got; err != nil {
		t.Fatalf("client read: %v", err)
	}
}
