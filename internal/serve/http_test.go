package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// readResponse reads one HTTP response off br, body included, as a client
// that sent method reads it.
func readResponse(t *testing.T, br *bufio.Reader, method string) *http.Response {
	t.Helper()
	resp, err := http.ReadResponse(br, &http.Request{Method: method})
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body = io.NopCloser(strings.NewReader(string(body)))
	return resp
}

// readBody returns what is left of resp's body.
func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// expectClosed reads conn to its end, which must come within the deadline.
func expectClosed(t *testing.T, conn net.Conn, br *bufio.Reader, within time.Duration) {
	t.Helper()
	if err := conn.SetReadDeadline(time.Now().Add(within)); err != nil {
		t.Fatal(err)
	}
	if b, err := br.ReadByte(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read %q, %v; want the connection closed", b, err)
	}
}

// Go's HTTP client — the benchmark harness's — keeps one connection for the
// daemon's routes: the mint, stats and health answers each carry their
// length, so the client reuses the connection for every request after the
// first, exactly as it did while net/http served them.
func TestHTTPRoutesShareOneConnection(t *testing.T) {
	_, srv := testServerHandle(t, 300, Options{})
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	var reused, conns int
	var mu sync.Mutex
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		mu.Lock()
		defer mu.Unlock()
		conns++
		if info.Reused {
			reused++
		}
	}}
	send := func(method, path string) *http.Response {
		t.Helper()
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace), method, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	do := func(method, path, wantType, wantBody string) *http.Response {
		t.Helper()
		resp := send(method, path)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != wantType || resp.Close {
			t.Fatalf("%s %s: status %d, Content-Type %q, close %v", method, path, resp.StatusCode, resp.Header.Get("Content-Type"), resp.Close)
		}
		if wantBody != "" {
			if body := readBody(t, resp); body != wantBody {
				t.Fatalf("%s %s answered %q, want %q", method, path, body, wantBody)
			}
		}
		return resp
	}
	// The stats and mint answers are decoded, and their bodies closed, the
	// way bench/daemon.go reads them.
	stats := func() Stats {
		t.Helper()
		resp := send(http.MethodGet, "/v1/stats")
		defer resp.Body.Close()
		var st Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	mint := func() {
		t.Helper()
		resp := send(http.MethodPost, "/v1/session")
		defer resp.Body.Close()
		var doc struct {
			Session string `json:"session"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || doc.Session != "0" {
			t.Fatalf("mint answered %+v, %v", doc, err)
		}
	}

	do(http.MethodGet, "/healthz", "text/plain; charset=utf-8", "ok\n")
	if st := stats(); st.POIs != 300 {
		t.Fatalf("stats report %d POIs, want 300", st.POIs)
	}
	for i := 0; i < 20; i++ {
		mint()
	}
	if resp := do(http.MethodHead, "/v1/stats", "application/json", ""); resp.ContentLength <= 0 {
		t.Fatalf("HEAD /v1/stats carries Content-Length %d", resp.ContentLength)
	}
	do(http.MethodPost, "/v1/session", "application/json", sessionShimBody)
	stats()
	if conns != 25 || reused != conns-1 {
		t.Fatalf("%d requests, %d on a reused connection; want every one after the first", conns, reused)
	}
}

// Heads sent back to back in one write are answered in order on the one
// connection, a path the daemon does not serve and a method a route does not
// take included; a head asking to close is answered last and the connection
// then closed, pipelined bytes behind it unread.
func TestHTTPPipelinedHeads(t *testing.T) {
	_, srv := testServerHandle(t, 100, Options{})
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	heads := []struct {
		method, head string
		status       int
		allow        string
	}{
		{"GET", "GET /healthz HTTP/1.1\r\nHost: senn\r\n\r\n", 200, ""},
		{"GET", "GET /nope HTTP/1.1\r\nHost: senn\r\n\r\n", 404, ""},
		{"POST", "POST /v1/stats HTTP/1.1\r\nHost: senn\r\nContent-Length: 0\r\n\r\n", 405, "GET, HEAD"},
		{"GET", "GET /v1/session HTTP/1.1\r\nHost: senn\r\n\r\n", 405, "POST"},
		{"POST", "POST /v1/ws HTTP/1.1\r\nHost: senn\r\nContent-Length: 0\r\n\r\n", 405, "GET"},
		{"HEAD", "HEAD /healthz HTTP/1.1\r\nHost: senn\r\n\r\n", 200, ""},
		{"GET", "GET /v1/stats?x=1 HTTP/1.1\r\nHost: senn\r\nConnection: close\r\n\r\n", 200, ""},
	}
	var all string
	for _, h := range heads {
		all += h.head
	}
	if _, err := io.WriteString(conn, all+"GET /healthz HTTP/1.1\r\nHost: senn\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i, h := range heads {
		resp := readResponse(t, br, h.method)
		last := i == len(heads)-1
		if resp.StatusCode != h.status || resp.Header.Get("Allow") != h.allow || resp.Close != last {
			t.Fatalf("%q: status %d, Allow %q, close %v", h.head, resp.StatusCode, resp.Header.Get("Allow"), resp.Close)
		}
		if body := readBody(t, resp); h.method == "HEAD" && body != "" || h.status != 200 && body != http.StatusText(h.status)+"\n" {
			t.Fatalf("%q: body %q", h.head, body)
		}
	}
	expectClosed(t, conn, br, 10*time.Second)
}

// A client that asks for the connection to close — by header, or by speaking
// HTTP/1.0 — gets its answer and then the close; so does a request with a
// body, which the daemon refuses with 400 rather than read.
func TestHTTPConnectionEnds(t *testing.T) {
	_, srv := testServerHandle(t, 100, Options{})
	for _, tc := range []struct {
		head, method string
		want         int
	}{
		{"GET /healthz HTTP/1.1\r\nHost: senn\r\nConnection: keep-alive, close\r\n\r\n", "GET", 200},
		{"GET /v1/stats HTTP/1.0\r\n\r\n", "GET", 200},
		{"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", "GET", 200},
		{"POST /v1/session HTTP/1.1\r\nHost: senn\r\nContent-Length: 2\r\n\r\n{}", "POST", 400},
		{"POST /v1/session HTTP/1.1\r\nHost: senn\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", "POST", 400},
		{"GET /healthz HTTP/1.1\r\n\r\n", "GET", 400}, // HTTP/1.1 without a Host
	} {
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, tc.head); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		if resp := readResponse(t, br, tc.method); resp.StatusCode != tc.want || !resp.Close {
			t.Fatalf("%q: status %d, close %v; want %d and close", tc.head, resp.StatusCode, resp.Close, tc.want)
		}
		expectClosed(t, conn, br, 10*time.Second)
	}
}

// The head deadline bounds the wait for every head on a connection, so a
// keep-alive connection left idle after an answer is closed once it passes:
// not before, and not much after.
func TestIdleKeepAliveClosedAtHeadDeadline(t *testing.T) {
	const deadline = 300 * time.Millisecond
	srv := serveTest(t, NewServer(testModule(100), Options{}), deadline)
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for i := 0; i < 3; i++ { // each answer restarts the wait
		time.Sleep(deadline / 2)
		if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: senn\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		if resp := readResponse(t, br, "GET"); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	start := time.Now()
	expectClosed(t, conn, br, deadline+5*time.Second)
	if idle := time.Since(start); idle < deadline/2 {
		t.Fatalf("idle connection closed after %v, before the %v deadline", idle, deadline)
	}
}

// Close ends a keep-alive connection waiting for its next head at once,
// without waiting out the head deadline; a connection accepted afterwards is
// answered once, with Connection: close.
func TestCloseEndsIdleHTTPConnections(t *testing.T) {
	s, srv := testServerHandle(t, 100, Options{})
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: senn\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	if resp := readResponse(t, br, "GET"); resp.StatusCode != http.StatusOK || resp.Close {
		t.Fatalf("status %d, close %v", resp.StatusCode, resp.Close)
	}
	ctx, cancel := context.WithTimeout(context.Background(), testHandshakeTimeout/2)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close waited on the idle connection: %v", err)
	}
	expectClosed(t, conn, br, time.Second)

	late, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if _, err := io.WriteString(late, "GET /healthz HTTP/1.1\r\nHost: senn\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	lbr := bufio.NewReader(late)
	if resp := readResponse(t, lbr, "GET"); resp.StatusCode != http.StatusOK || !resp.Close {
		t.Fatalf("after Close: status %d, close %v; want 200 and close", resp.StatusCode, resp.Close)
	}
	expectClosed(t, late, lbr, 10*time.Second)
}

// temporaryError is an accept error that passes.
type temporaryError struct{}

func (temporaryError) Error() string   { return "accept: too many open files" }
func (temporaryError) Timeout() bool   { return false }
func (temporaryError) Temporary() bool { return true }

// flakyListener fails its first temporary Accepts with a temporary error,
// then for good; it records when each Accept was asked.
type flakyListener struct {
	net.Listener
	temporary int
	asked     []time.Time
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.asked = append(l.asked, time.Now())
	if len(l.asked) <= l.temporary {
		return nil, temporaryError{}
	}
	return nil, net.ErrClosed
}

// A temporary accept error (descriptors exhausted) is retried after a pause
// that doubles from 5 ms, so the loop does not spin on it; a lasting one
// ends Serve.
func TestServeBacksOffOnTemporaryAcceptErrors(t *testing.T) {
	l := &flakyListener{temporary: 4}
	if err := NewServer(testModule(10), Options{}).Serve(l, testHandshakeTimeout); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve returned %v, want the lasting error", err)
	}
	if len(l.asked) != l.temporary+1 {
		t.Fatalf("Accept asked %d times, want %d", len(l.asked), l.temporary+1)
	}
	for i, want := 1, 5*time.Millisecond; i < len(l.asked); i, want = i+1, 2*want {
		if gap := l.asked[i].Sub(l.asked[i-1]); gap < want {
			t.Fatalf("retry %d came %v after the error, want a pause of at least %v", i, gap, want)
		}
	}
}

// The reason phrases the daemon writes are net/http's.
func TestStatusTextMatchesNetHTTP(t *testing.T) {
	for code, text := range statusText {
		if want := http.StatusText(code); text != want {
			t.Errorf("status %d reads %q, net/http writes %q", code, text, want)
		}
	}
}
