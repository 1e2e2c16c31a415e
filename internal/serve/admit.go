package serve

import (
	"bytes"
	"crypto/sha1"
	"encoding/base64"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The query channel's opening handshake is read straight off the listener:
// net/http would give every connection a 4 KB bufio.Reader and Writer that a
// hijacked connection never returns to their pools, a third Writer for the
// hijack, a parsed Request and two goroutines, all of it garbage once the
// session starts. Here the head lands in the connection's own inline read
// buffer, is checked in place and answered, and the goroutine that read it
// becomes the session's. Every other connection goes to net/http untouched.

// maxHead is the longest request head the query channel admits: the head is
// read into the connection's inline read buffer (DialWS sends ≈ 170 B).
const maxHead = firstReadSize

// wsRequestLine is how the query channel's request line starts; the target
// then ends or continues with a query string.
const wsRequestLine = "GET /v1/ws"

// Head verdicts besides an HTTP status (101 admits; anything else refuses).
const (
	headIncomplete = 0  // more bytes are needed to decide
	headHandoff    = -1 // not the query channel: net/http serves it
)

// head is parseHead's verdict on the bytes read so far.
type head struct {
	status int
	// end is the head's length, blank line included, and key its first
	// Sec-WebSocket-Key value: both set when status is 101.
	end int
	key []byte
}

// parseHead routes on the request line and judges a query-channel head by
// the rules the handshake followed while net/http parsed it: what
// http.ReadRequest and the server refuse is refused with their status, an
// admitted head carries both Upgrade tokens, version 13 and a key. The
// parser is stricter than net/http in three places, each a 400 or a 431: a
// folded header line, a Content-Length or Transfer-Encoding on the
// handshake, and a head longer than maxHead. The Host value is not read.
func parseHead(b []byte) head {
	if n := min(len(b), len(wsRequestLine)); string(b[:n]) != wsRequestLine[:n] {
		return head{status: headHandoff}
	}
	if len(b) <= len(wsRequestLine) {
		return head{status: headIncomplete}
	}
	if c := b[len(wsRequestLine)]; c != ' ' && c != '?' {
		return head{status: headHandoff}
	}
	line, rest, ok := cutLine(b)
	if !ok {
		return moreHead(b)
	}
	// Split where net/http splits: the target ends at the second space.
	target, proto, ok := bytes.Cut(line[len("GET "):], []byte(" "))
	if !ok || !ctlFree(target, false) || !validProto(proto) {
		return head{status: http.StatusBadRequest}
	}
	var (
		hosts                 int
		conn, upgrade         bool
		version, key          []byte
		haveVersion, haveKey  bool
		bodyHeader, spaceName bool
	)
	for {
		if line, rest, ok = cutLine(rest); !ok {
			return moreHead(b)
		}
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		nameOK, spaced := headerName(name)
		if !ok || !nameOK || name[0] == ' ' || !ctlFree(value, true) {
			return head{status: http.StatusBadRequest} // no colon, a folded line or a control byte
		}
		spaceName = spaceName || spaced
		value = bytes.Trim(value, " \t")
		switch {
		case bytes.EqualFold(name, []byte("Host")):
			hosts++
		case bytes.EqualFold(name, []byte("Connection")):
			conn = conn || hasToken(value, "upgrade")
		case bytes.EqualFold(name, []byte("Upgrade")):
			upgrade = upgrade || hasToken(value, "websocket")
		case bytes.EqualFold(name, []byte("Sec-WebSocket-Version")):
			if !haveVersion {
				version, haveVersion = value, true
			}
		case bytes.EqualFold(name, []byte("Sec-WebSocket-Key")):
			if !haveKey {
				key, haveKey = value, true
			}
		case bytes.EqualFold(name, []byte("Content-Length")), bytes.EqualFold(name, []byte("Transfer-Encoding")):
			bodyHeader = true
		}
	}
	switch {
	case bodyHeader || hosts > 1:
		return head{status: http.StatusBadRequest}
	case proto[5] != '1':
		return head{status: http.StatusHTTPVersionNotSupported}
	case spaceName, hosts == 0 && proto[7] >= '1', !conn || !upgrade: // HTTP/1.1 requires a Host
		return head{status: http.StatusBadRequest}
	case string(version) != "13":
		return head{status: http.StatusUpgradeRequired}
	case len(key) == 0:
		return head{status: http.StatusBadRequest}
	}
	return head{status: http.StatusSwitchingProtocols, end: len(b) - len(rest), key: key}
}

// moreHead is the verdict on a query-channel head that has not ended yet.
func moreHead(b []byte) head {
	if len(b) >= maxHead {
		return head{status: http.StatusRequestHeaderFieldsTooLarge}
	}
	return head{status: headIncomplete}
}

// cutLine splits off the first line, ended by LF or CRLF as net/textproto
// ends it; ok is false while no line end has arrived.
func cutLine(b []byte) (line, rest []byte, ok bool) {
	line, rest, ok = bytes.Cut(b, []byte("\n"))
	return bytes.TrimSuffix(line, []byte("\r")), rest, ok
}

// validProto reports whether p is an HTTP version net/http parses: HTTP/d.d.
func validProto(p []byte) bool {
	return len(p) == len("HTTP/1.1") && string(p[:5]) == "HTTP/" &&
		'0' <= p[5] && p[5] <= '9' && p[6] == '.' && '0' <= p[7] && p[7] <= '9'
}

// ctlFree reports whether b holds no control byte (a tab passes if tabOK).
func ctlFree(b []byte, tabOK bool) bool {
	for _, c := range b {
		if (c < ' ' || c == 0x7f) && !(tabOK && c == '\t') {
			return false
		}
	}
	return true
}

// headerName reports whether net/textproto reads b as a header name: an
// RFC 7230 token, into which it also lets spaces, for the server to refuse
// once it has checked the version.
func headerName(b []byte) (ok, spaced bool) {
	for _, c := range b {
		spaced = spaced || c == ' '
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			bytes.IndexByte([]byte(" !#$%&'*+-.^_`|~"), c) >= 0) {
			return false, spaced
		}
	}
	return len(b) > 0, spaced
}

// hasToken reports whether the comma-separated header value carries token,
// compared as net/http's Upgrade handling compared it (trimmed,
// case-folded).
func hasToken(value []byte, token string) bool {
	for more := true; more; {
		var part []byte
		part, value, more = bytes.Cut(value, []byte(","))
		if bytes.EqualFold(bytes.TrimSpace(part), []byte(token)) {
			return true
		}
	}
	return false
}

// readHead reads the request head into c.first until parseHead decides,
// never more than maxHead bytes, and returns the verdict and the bytes read.
// err is the transport's when the head ended undecided.
func (c *WSConn) readHead() (h head, n int, err error) {
	for {
		var m int
		m, err = c.conn.Read(c.first[n:])
		n += m
		if h = parseHead(c.first[:n]); h.status != headIncomplete || err != nil {
			return h, n, err
		}
	}
}

// Listen admits the query channel straight off ln and returns the listener
// for everything else, which http.Server.Serve consumes. Each accepted
// connection gets one goroutine: it reads the request head under the
// handshake deadline and, for GET /v1/ws, answers it and serves the session
// itself; any other request line is handed to the returned listener with
// the bytes already read replayed in front of the connection. Closing the
// returned listener (http.Server.Shutdown does) closes ln and ends the
// accept loop.
func (s *Server) Listen(ln net.Listener, handshakeTimeout time.Duration) net.Listener {
	return listen(ln, handshakeTimeout, s.runConn)
}

// listen is Listen with the session left to run: run gets each admitted
// connection on the goroutine that read its handshake.
func listen(ln net.Listener, timeout time.Duration, run func(*WSConn)) *handoffListener {
	l := &handoffListener{Listener: ln, timeout: timeout,
		conns: make(chan accepted), done: make(chan struct{}), exited: make(chan struct{})}
	go func() {
		defer close(l.exited)
		for {
			conn, err := ln.Accept()
			if err != nil {
				// http.Server.Serve backs off on a temporary error before it
				// asks again, which paces this loop.
				l.pass(accepted{err: err})
				if errors.Is(err, net.ErrClosed) {
					return
				}
				continue
			}
			go func() {
				if ws := l.handshake(conn); ws != nil {
					run(ws)
				}
			}()
		}
	}()
	return l
}

// handoffListener yields the connections that are not the query channel's.
type handoffListener struct {
	net.Listener
	timeout   time.Duration
	conns     chan accepted
	done      chan struct{}
	closeOnce sync.Once
	// exited is closed when the accept loop has returned.
	exited chan struct{}
}

// accepted is one hand-off: a connection or an accept error.
type accepted struct {
	conn net.Conn
	err  error
}

func (l *handoffListener) Accept() (net.Conn, error) {
	select {
	case a := <-l.conns:
		return a.conn, a.err
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close closes the listener and returns once the accept loop has. Handshakes
// in flight end by their deadline; admitted sessions are the Server's.
func (l *handoffListener) Close() error {
	err := net.ErrClosed
	l.closeOnce.Do(func() {
		close(l.done)
		err = l.Listener.Close()
		<-l.exited
	})
	return err
}

// pass hands a to whoever accepts; a connection nobody will accept any more
// is closed.
func (l *handoffListener) pass(a accepted) {
	select {
	case l.conns <- a:
	case <-l.done:
		if a.conn != nil {
			abortConn(a.conn)
		}
	}
}

// acceptResponse is the 101 that admits a handshake, up to its accept key.
const acceptResponse = "HTTP/1.1 101 Switching Protocols\r\n" +
	"Upgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Accept: "

// handshake reads conn's request head and acts on it: a query-channel head
// is answered with 101 and its WSConn returned; a refused one is answered
// with its status and closed; any other connection is handed off. It
// returns nil in every case but the first.
func (l *handoffListener) handshake(conn net.Conn) *WSConn {
	ws := &WSConn{conn: conn, maxMsg: DefaultMaxMessage, batch: true}
	//simvet:discard — a connection that refuses a deadline is dead; the head read below fails on it
	_ = conn.SetReadDeadline(time.Now().Add(l.timeout))
	h, n, err := ws.readHead()
	switch {
	case h.status == headHandoff:
		l.pass(accepted{conn: &replayConn{Conn: conn, head: ws.first[:n]}})
		return nil
	case err != nil: // the client went away or missed the deadline mid-head
		abortConn(conn)
		return nil
	case h.status != http.StatusSwitchingProtocols:
		refuse(conn, h.status)
		return nil
	}
	ws.pending = make([]byte, 0, len(acceptResponse)+base64.StdEncoding.EncodedLen(sha1.Size)+len("\r\n\r\n"))
	ws.pending = append(appendAcceptKey(append(ws.pending, acceptResponse...), h.key), "\r\n\r\n"...)
	ws.unread = ws.first[h.end:n]
	if conn.SetReadDeadline(time.Time{}) != nil || ws.Flush() != nil {
		abortConn(conn)
		return nil
	}
	return ws
}

// refuse answers a head the query channel does not admit and closes the
// connection. The write side is closed first and what the client still
// sends is drained until it closes or the handshake deadline passes:
// closing with unread bytes would reset the connection, which can discard
// the answer before the client reads it.
func refuse(conn net.Conn, status int) {
	text := http.StatusText(status)
	resp := "HTTP/1.1 " + strconv.Itoa(status) + " " + text + "\r\n"
	if status == http.StatusUpgradeRequired {
		resp += "Sec-WebSocket-Version: 13\r\n"
	}
	resp += "Content-Type: text/plain; charset=utf-8\r\nConnection: close\r\n" +
		"Content-Length: " + strconv.Itoa(len(text)+1) + "\r\n\r\n" + text + "\n"
	//simvet:discard — the refusal is a courtesy to a client being turned away; the connection is closed either way
	_, _ = io.WriteString(conn, resp)
	if cw, ok := conn.(interface{ CloseWrite() error }); ok && cw.CloseWrite() == nil {
		//simvet:discard — draining ends at the client's close, the deadline or any error alike
		_, _ = io.Copy(io.Discard, conn)
	}
	abortConn(conn)
}

// replayConn is a handed-off connection: its reads return the bytes the
// handshake already consumed, then the transport's.
type replayConn struct {
	net.Conn
	head []byte
}

func (c *replayConn) Read(p []byte) (int, error) {
	if len(c.head) == 0 {
		return c.Conn.Read(p)
	}
	n := copy(p, c.head)
	c.head = c.head[n:]
	return n, nil
}
