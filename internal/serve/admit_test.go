package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/racebuild"
)

// rawHead is a complete query-channel handshake, and rawAccepted the 101
// that admits it.
const (
	rawHead     = "GET /v1/ws HTTP/1.1\r\nHost: senn\r\nUpgrade: senn/1\r\nConnection: Upgrade\r\n\r\n"
	rawAccepted = "HTTP/1.1 101 Switching Protocols\r\nUpgrade: senn/1\r\nConnection: Upgrade\r\n\r\n"
)

// Admitting a session is what the daemon pays each time a host arrives, so
// it must stay cheap: the head is read into the connection's own buffer and
// answered from there. The client here is a socket, one pre-built write and
// a read into a fixed array, so the process's allocation is the daemon's
// admission plus the dial: 2.4-2.5 KB per admission when this bound was
// set, 17.9 KB while net/http read the head and the connection was
// hijacked, and 2.3 KB since the 101 carries no accept key.
func TestAdmissionAllocatesLittle(t *testing.T) {
	if racebuild.Enabled() {
		t.Skip("race instrumentation allocates on its own account")
	}
	const (
		sessions = 200
		budget   = 4 << 10
	)
	s, srv := testServerHandle(t, 500, Options{})
	addr := srv.Listener.Addr().String()
	head := []byte(rawHead)
	var resp [len(rawAccepted)]byte
	conns := make([]net.Conn, 0, sessions+1)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	admit := func() {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
		if _, err := conn.Write(head); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, resp[:]); err != nil || string(resp[:]) != rawAccepted {
			t.Fatalf("handshake answered %q, %v", resp[:], err)
		}
	}
	allocated := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	admit() // lazily built state (the conns map, the poller) into the baseline
	waitFor(t, "the warm-up session", func() bool { return s.stat.activeConns.Load() == 1 })

	before := allocated()
	for i := 0; i < sessions; i++ {
		admit()
	}
	waitFor(t, "every session to park", func() bool { return s.stat.activeConns.Load() == sessions+1 })
	per := (allocated() - before) / sessions
	t.Logf("%d admissions: %d bytes allocated each, dial included", sessions, per)
	if per > budget {
		t.Fatalf("an admission allocates %d bytes, budget %d", per, budget)
	}
}

// Closing the listener ends Serve's accept loop with the listener's error
// and nothing is accepted afterwards; a connection accepted before keeps
// being answered until Close ends it.
func TestListenerCloseEndsAdmission(t *testing.T) {
	s := NewServer(testModule(100), Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln, testHandshakeTimeout) }()
	addr := ln.Addr().String()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	get := func() {
		t.Helper()
		if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: senn\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		if resp := readResponse(t, br, "GET"); resp.StatusCode != http.StatusOK || resp.Close {
			t.Fatalf("/healthz answered %d, close %v", resp.StatusCode, resp.Close)
		}
	}
	get()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve returned %v, want the closed listener's error", err)
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Fatal("the listener still accepts after Close")
	}
	get()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if n, err := br.ReadByte(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the connection read %q, %v after Close; want it closed", n, err)
	}
}

// testRoutes is the daemon's route table as FuzzHandshake's referee knows
// it: path (the request target up to any '?') to the methods served there.
var testRoutes = map[string][]string{
	"/v1/ws":      {http.MethodGet},
	"/healthz":    {http.MethodGet, http.MethodHead},
	"/v1/stats":   {http.MethodGet, http.MethodHead},
	"/v1/session": {http.MethodPost},
}

// routeStatus is the status a parsed request got while net/http served the
// daemon: the server's own refusals first, then the route table (404, 405),
// then the query channel's upgrade rules (400 without an upgrade, 426 for
// another protocol, 101 for senn/1) and 200 for any other route. It is the
// referee FuzzHandshake holds parseHead to.
func routeStatus(r *http.Request, hasHost bool) int {
	validName := func(k string) bool {
		for _, c := range []byte(k) {
			if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0) {
				return false
			}
		}
		return true
	}
	hasToken := func(name, token string) bool {
		for _, v := range r.Header.Values(name) {
			for _, part := range strings.Split(v, ",") {
				if strings.EqualFold(strings.TrimSpace(part), token) {
					return true
				}
			}
		}
		return false
	}
	switch {
	case r.ProtoMajor != 1:
		return http.StatusHTTPVersionNotSupported
	case r.ProtoAtLeast(1, 1) && !hasHost:
		return http.StatusBadRequest
	}
	for k := range r.Header {
		if !validName(k) {
			return http.StatusBadRequest
		}
	}
	path := strings.Split(r.RequestURI, "?")[0]
	methods, ok := testRoutes[path]
	switch {
	case !ok:
		return http.StatusNotFound
	case !slices.Contains(methods, r.Method):
		return http.StatusMethodNotAllowed
	case path != "/v1/ws":
		return http.StatusOK
	case !hasToken("Connection", "upgrade") || !slices.ContainsFunc(r.Header.Values("Upgrade"), func(v string) bool { return v != "" }):
		return http.StatusBadRequest
	case !hasToken("Upgrade", "senn/1"):
		return http.StatusUpgradeRequired
	}
	return http.StatusSwitchingProtocols
}

// headerLines reports, from a plain scan of the header lines of a head,
// whether it names a Host and whether it carries a folded line or a body
// header (a Transfer-Encoding, a Content-Length other than 0) — two of the
// places parseHead is stricter than net/http.
func headerLines(data []byte) (hasHost, stricter bool) {
	headEnd := len(data)
	if i := bytes.Index(data, []byte("\n\r\n")); i >= 0 {
		headEnd = i + 1
	}
	if i := bytes.Index(data, []byte("\n\n")); i >= 0 && i+1 < headEnd {
		headEnd = i + 1
	}
	lines := strings.Split(string(data[:headEnd]), "\n")
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, " ") || strings.HasPrefix(l, "\t") {
			stricter = true
		}
		name, value, _ := strings.Cut(strings.TrimSuffix(l, "\r"), ":")
		switch strings.ToLower(name) {
		case "host":
			hasHost = true
		case "content-length":
			stricter = stricter || strings.Trim(value, " \t") != "0"
		case "transfer-encoding":
			stricter = true
		}
	}
	return hasHost, stricter
}

// chunkConn serves a fixed byte string in reads of at most chunk bytes and
// counts what it hands out; nothing else of net.Conn is used.
type chunkConn struct {
	net.Conn
	data  []byte
	chunk int
	read  int
}

func (c *chunkConn) Read(p []byte) (int, error) {
	if c.read == len(c.data) {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.chunk)], c.data[c.read:])
	c.read += n
	return n, nil
}

// For any bytes a client sends, admission reads at most maxHead of them and
// decides as net/http decided while it served the daemon's routes: a head
// admitted to the query channel parses with http.ReadRequest into a GET of
// /v1/ws upgrading to senn/1; a head answered on the
// connection (200, 404, 405) parses into a request of that route and method
// that carries no body, ends where net/http's head ended, and is kept open
// only if net/http would have kept it; a head refused got the same status,
// unless it is one of the heads parseHead refuses by its own stricter rules
// (longer than maxHead, a folded line, a body). A target net/http could not
// parse as a URI is no path the daemon serves: the rest of the head decides
// between a refusal and a 404. Reading in chunks decides as parsing all at
// once does.
func FuzzHandshake(f *testing.F) {
	f.Add([]byte(rawHead), uint8(0))
	f.Add([]byte("GET /v1/ws?session=0 HTTP/1.1\r\nHost: 127.0.0.1:8046\r\nUpgrade: senn/1\r\nConnection: Upgrade\r\n\r\n"), uint8(7))
	f.Add([]byte(rawHead+"\x16\x00\x00\x00SENN\x01\x03"), uint8(3)) // dialRaw's: a message pipelined behind the head
	f.Add([]byte("GET /v1/ws HTTP/1.1\r\nHost: senn\r\nConnection: Upgrade\r\n\r\n"), uint8(1))
	f.Add([]byte(strings.Replace(rawHead, "senn/1", "senn/2", 1)), uint8(2))
	f.Add([]byte(strings.Replace(rawHead, "senn/1", "websocket", 1)), uint8(5))
	f.Add([]byte(strings.Replace(rawHead, "Upgrade: senn/1", "Upgrade:", 1)), uint8(6))
	f.Add([]byte(strings.Replace(rawHead, "Host: senn", "Host: senn\r\nX-Padding: "+strings.Repeat("x", maxHead), 1)), uint8(64))
	f.Add([]byte("POST /v1/ws HTTP/1.1\r\nHost: senn\r\nContent-Length: 0\r\n\r\n"), uint8(4))
	f.Add([]byte("GET /v1/ws HTTP/1.1\nhost: a\nupgrade: h2c, SENN/1\nconnection: keep-alive, upgrade\n\n"), uint8(9))
	f.Add([]byte("GET /v1/ws HTTP/1.1\r\nHost: senn\r\nUpgrade:\r\n senn/1\r\n\r\n"), uint8(11))
	// The HTTP routes: the heads Go's client (the benchmark harness) and
	// curl (CI's smoke job) send, and their neighbours.
	f.Add([]byte("POST /v1/session HTTP/1.1\r\nHost: 127.0.0.1:8046\r\nUser-Agent: Go-http-client/1.1\r\n"+
		"Content-Length: 0\r\nContent-Type: application/json\r\nAccept-Encoding: gzip\r\n\r\n"), uint8(13))
	f.Add([]byte("GET /v1/stats HTTP/1.1\r\nHost: 127.0.0.1:8046\r\nUser-Agent: Go-http-client/1.1\r\nAccept-Encoding: gzip\r\n\r\n"), uint8(5))
	f.Add([]byte("GET /healthz HTTP/1.1\r\nHost: 127.0.0.1:8046\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\n\r\n"), uint8(63))
	f.Add([]byte("HEAD /v1/stats?pretty HTTP/1.1\r\nHost: senn\r\nConnection: close\r\n\r\nGET /healthz HTTP/1.1\r\n"), uint8(8))
	f.Add([]byte("GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"), uint8(2))
	f.Add([]byte("DELETE /v1/stats HTTP/1.1\r\nHost: senn\r\n\r\n"), uint8(4))
	f.Add([]byte("GET /v1/%73tats HTTP/1.1\r\nHost: senn\r\n\r\n"), uint8(4))
	f.Add([]byte("GET /nope%zz HTTP/1.1\r\nHost: senn\r\n\r\n"), uint8(4))
	f.Add([]byte("POST /v1/session HTTP/1.1\r\nHost: senn\r\nContent-Length: 5\r\n\r\nhello"), uint8(9))
	f.Add([]byte("POST /v1/session HTTP/1.1\r\nHost: senn\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		got := parseHead(data[:min(len(data), maxHead)])

		c := &chunkConn{data: data, chunk: int(chunk%64) + 1}
		read, n, _ := (&WSConn{conn: c}).readHead(0)
		if c.read > maxHead || n != c.read {
			t.Fatalf("read %d bytes, reported %d; the cap is %d", c.read, n, maxHead)
		}
		if read.status != got.status || read.end != got.end || read.close != got.close {
			t.Fatalf("read in %d-byte chunks: %+v, parsed at once: %+v", c.chunk, read, got)
		}

		src := bytes.NewReader(data)
		br := bufio.NewReader(src)
		req, rerr := http.ReadRequest(br)
		hasHost, stricter := headerLines(data)
		if urlErr := (*url.Error)(nil); errors.As(rerr, &urlErr) {
			// net/http refused the target itself. Here it is no path the
			// daemon serves, and the rest of the head decides.
			if got.status == http.StatusOK || got.status == http.StatusSwitchingProtocols || got.status == http.StatusMethodNotAllowed ||
				strings.Contains(rerr.Error(), "invalid control character") && got.status != headIncomplete && got.status != http.StatusBadRequest {
				t.Fatalf("answered %d to a target net/http refused: %v", got.status, rerr)
			}
			return
		}
		switch got.status {
		case headIncomplete:
			if rerr == nil {
				t.Fatalf("waits for more of a head http.ReadRequest parsed: %+v", req)
			}
		case http.StatusNotFound, http.StatusMethodNotAllowed, http.StatusOK, http.StatusSwitchingProtocols:
			if rerr != nil {
				t.Fatalf("answered %d to a head net/http refused: %v", got.status, rerr)
			}
			if want := routeStatus(req, hasHost); got.status != want {
				t.Fatalf("answered %d to %s %q, net/http answered %d", got.status, req.Method, req.RequestURI, want)
			}
			if consumed := len(data) - src.Len() - br.Buffered(); got.end != consumed {
				t.Fatalf("head ends at %d, net/http read %d bytes of it", got.end, consumed)
			}
			if got.status == http.StatusSwitchingProtocols {
				break
			}
			if req.ContentLength != 0 || len(req.TransferEncoding) > 0 {
				t.Fatalf("answered %d to a request net/http read a body behind: %+v", got.status, req)
			}
			if req.Close && !got.close || got.bodyless != (req.Method == http.MethodHead) {
				t.Fatalf("close %v, bodyless %v; net/http read Close %v for a %s", got.close, got.bodyless, req.Close, req.Method)
			}
		default:
			want := http.StatusBadRequest // what net/http answers a head it cannot parse
			if rerr == nil {
				want = routeStatus(req, hasHost)
			}
			if got.status != want && !(stricter && got.status == http.StatusBadRequest) &&
				!(len(data) >= maxHead && got.status == http.StatusRequestHeaderFieldsTooLarge) {
				t.Fatalf("refused with %d, net/http answered %d (%v)", got.status, want, rerr)
			}
		}
	})
}
