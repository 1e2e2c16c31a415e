package serve

import (
	"bytes"
	"crypto/sha1"
	"encoding/base64"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"time"
)

// The daemon speaks the little HTTP/1.1 it needs itself, straight off its
// listener: each request head lands in the connection's own inline read
// buffer, is judged in place and answered from there. GET /v1/ws is answered
// 101 and the goroutine that read it becomes the session's; the other routes
// (routeAllow) are answered on the connection, which then waits for its next
// head. Nothing here links net/http, whose server, client, TLS and HTTP/2
// code was most of the daemon's executable (DESIGN §16).

// maxHead is the longest request head the daemon reads: every head is read
// into the connection's inline read buffer (DialWS sends ≈ 170 B, Go's HTTP
// client ≈ 150 B, curl ≈ 90 B).
const maxHead = firstReadSize

// statusText is the reason phrase net/http's StatusText gives each status.
var statusText = map[int]string{
	101: "Switching Protocols", 200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
	426: "Upgrade Required", 431: "Request Header Fields Too Large", 505: "HTTP Version Not Supported",
}

// headIncomplete is parseHead's verdict while more bytes are needed.
const headIncomplete = 0

// head is parseHead's verdict on the bytes read so far.
type head struct {
	// status is the answer: 101 admits the query channel, 200 answers route,
	// 404 and 405 are answered on a connection that stays open, anything
	// else refuses the connection.
	status int
	// route is the request's path when it is one of routeAllow's, and allow
	// that route's methods (the Allow header of a 405).
	route, allow string
	// end is the head's length, blank line included: set when the head was
	// read to its end.
	end int
	// key is the first Sec-WebSocket-Key value: set when status is 101.
	key []byte
	// bodyless marks a HEAD request; close a client that asked the
	// connection to end with this answer (Connection: close, or HTTP/1.0).
	bodyless, close bool
}

// routeAllow maps each path the daemon answers to the methods it answers
// there; a known path asked with another method gets 405, any other path
// 404. The query string is not part of the path.
func routeAllow(path []byte) (route, allow string) {
	switch string(path) {
	case "/v1/ws":
		return "/v1/ws", "GET"
	case "/healthz":
		return "/healthz", "GET, HEAD"
	case "/v1/stats":
		return "/v1/stats", "GET, HEAD"
	case "/v1/session":
		return "/v1/session", "POST"
	}
	return "", ""
}

// parseHead judges a request head by the rules net/http applied when it
// served these routes: what http.ReadRequest and the server refused is
// refused with their status, an admitted query-channel head carries both
// Upgrade tokens, version 13 and a key. The parser is stricter than net/http
// in four places: a folded header line and a request body (a
// Transfer-Encoding or a Content-Length other than 0) are a 400, a head
// longer than maxHead a 431, and the path is matched byte for byte as sent,
// so a target net/http would have decoded or refused is a 404. The Host
// value is not read.
func parseHead(b []byte) head {
	line, rest, ok := cutLine(b)
	if !ok {
		return moreHead(b)
	}
	// Split where net/http splits: the method ends at the first space, the
	// target at the second.
	method, line, ok1 := bytes.Cut(line, []byte(" "))
	target, proto, ok2 := bytes.Cut(line, []byte(" "))
	if methodOK, _ := headerName(method); !ok1 || !ok2 || !methodOK || !ctlFree(target, false) || !validProto(proto) {
		return head{status: 400}
	}
	h := head{bodyless: string(method) == "HEAD", close: proto[7] == '0'}
	path, _, _ := bytes.Cut(target, []byte("?"))
	h.route, h.allow = routeAllow(path)
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
			return head{status: 400} // no colon, a folded line or a control byte
		}
		spaceName = spaceName || spaced
		value = bytes.Trim(value, " \t")
		switch {
		case bytes.EqualFold(name, []byte("Host")):
			hosts++
		case bytes.EqualFold(name, []byte("Connection")):
			conn = conn || hasToken(value, "upgrade")
			h.close = h.close || hasToken(value, "close")
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
		case bytes.EqualFold(name, []byte("Content-Length")):
			bodyHeader = bodyHeader || string(value) != "0"
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			bodyHeader = true
		}
	}
	h.end = len(b) - len(rest)
	switch {
	case bodyHeader || hosts > 1:
		h.status = 400
	case proto[5] != '1':
		h.status = 505
	case spaceName, hosts == 0 && proto[7] >= '1': // HTTP/1.1 requires a Host
		h.status = 400
	case h.route == "":
		h.status = 404
	case !methodIn(method, h.allow):
		h.status = 405
	case h.route != "/v1/ws":
		h.status = 200
	case !conn || !upgrade:
		h.status = 400
	case string(version) != "13":
		h.status = 426
	case len(key) == 0:
		h.status = 400
	default:
		h.status, h.key = 101, key
	}
	return h
}

// methodIn reports whether method is one of the comma-separated methods in
// allow; methods are case-sensitive.
func methodIn(method []byte, allow string) bool {
	for rest := allow; rest != ""; {
		var m string
		m, rest, _ = strings.Cut(rest, ", ")
		if string(method) == m {
			return true
		}
	}
	return false
}

// moreHead is the verdict on a head that has not ended yet.
func moreHead(b []byte) head {
	if len(b) >= maxHead {
		return head{status: 431}
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
// once it has checked the version. A method is a token too.
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

// readHead reads into c.first, behind the n bytes already there, until
// parseHead decides on them, never more than maxHead bytes in all, and
// returns the verdict and the bytes held. err is the transport's when the
// head ended undecided.
func (c *WSConn) readHead(n int) (h head, _ int, err error) {
	for {
		if h = parseHead(c.first[:n]); h.status != headIncomplete || err != nil {
			return h, n, err
		}
		var m int
		m, err = c.conn.Read(c.first[n:])
		n += m
	}
}

// Serve accepts connections on ln until Accept fails for good (closing ln
// ends it) and returns that error. Each connection gets one goroutine, which
// reads its request heads itself, each under headTimeout: the HTTP routes
// are answered and the connection kept for the next head, and GET /v1/ws is
// answered 101 and becomes a session served on the same goroutine. The
// deadline covers a head and the wait for it, so it also ends an idle
// keep-alive connection; an admitted session may idle as long as it likes.
// A temporary accept error (descriptors exhausted, say) is retried after a
// pause that doubles from 5 ms to 1 s, as http.Server.Serve paced it.
func (s *Server) Serve(ln net.Listener, headTimeout time.Duration) error {
	var pause time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ne, ok := err.(interface{ Temporary() bool }); ok && ne.Temporary() {
				pause = min(max(2*pause, 5*time.Millisecond), time.Second)
				time.Sleep(pause)
				continue
			}
			return err
		}
		pause = 0
		go s.runConn(conn, headTimeout)
	}
}

// acceptResponse is the 101 that admits a handshake, up to its accept key.
const acceptResponse = "HTTP/1.1 101 Switching Protocols\r\n" +
	"Upgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Accept: "

// admit answers ws's requests until one opens the query channel, which it
// answers 101 with whatever followed that head left unread for the session:
// it then reports true. It reports false, the connection closed, when the
// client leaves, misses the deadline, asks to close or is refused.
func (s *Server) admit(ws *WSConn, timeout time.Duration) bool {
	n := 0
	for {
		// A connection that refuses a deadline is dead; the head read below
		// fails on it.
		_ = ws.conn.SetReadDeadline(time.Now().Add(timeout))
		h, m, err := ws.readHead(n)
		switch {
		case err != nil: // the client went away or missed the deadline mid-head
			abortConn(ws.conn)
			return false
		case h.status == 101:
			ws.pending = slices.Grow(ws.pending[:0], len(acceptResponse)+base64.StdEncoding.EncodedLen(sha1.Size)+len("\r\n\r\n"))
			ws.pending = append(appendAcceptKey(append(ws.pending, acceptResponse...), h.key), "\r\n\r\n"...)
			ws.unread = ws.first[h.end:m]
			if ws.conn.SetReadDeadline(time.Time{}) != nil || ws.Flush() != nil {
				abortConn(ws.conn)
				return false
			}
			return true
		case h.status != 200 && h.status != 404 && h.status != 405:
			closeAfter(ws.conn, s.appendAnswer(nil, head{status: h.status, close: true}))
			return false
		}
		h.close = h.close || s.draining()
		ws.pending = s.appendAnswer(ws.pending[:0], h)
		if h.close {
			closeAfter(ws.conn, ws.pending)
			return false
		}
		if ws.Flush() != nil {
			abortConn(ws.conn)
			return false
		}
		// Pipelined bytes behind the head are the start of the next one.
		n = copy(ws.first[:], ws.first[h.end:m])
	}
}

// appendAnswer appends the HTTP/1.1 response to h: a route's document, or
// an error whose text is its status, as net/http's http.Error wrote it. The
// body is left out for HEAD, and Connection: close put in when h.close.
func (s *Server) appendAnswer(dst []byte, h head) []byte {
	extra, contentType, body := "", "text/plain; charset=utf-8", []byte("ok\n")
	switch {
	case h.status == 405:
		extra = "Allow: " + h.allow + "\r\n"
	case h.status == 426:
		extra = "Sec-WebSocket-Version: 13\r\n"
	case h.status != 200:
	case h.route == "/v1/stats":
		contentType, body = "application/json", s.statsJSON()
	case h.route == "/v1/session":
		contentType, body = "application/json", []byte(sessionShimBody)
	}
	if h.status != 200 {
		body = []byte(statusText[h.status] + "\n")
	}
	if h.close {
		extra += "Connection: close\r\n"
	}
	dst = fmt.Appendf(dst, "HTTP/1.1 %d %s\r\n%sDate: %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		h.status, statusText[h.status], extra, time.Now().UTC().Format("Mon, 02 Jan 2006 15:04:05 GMT"), contentType, len(body))
	if h.bodyless {
		return dst
	}
	return append(dst, body...)
}

// closeAfter writes resp, the connection's last answer, and closes the
// connection. The write side is closed first and what the client still
// sends is drained until it closes or the head deadline passes: closing with
// unread bytes would reset the connection, which can discard the answer
// before the client reads it.
func closeAfter(conn net.Conn, resp []byte) {
	// The last answer is a courtesy to a client whose connection is being
	// closed either way.
	_, _ = conn.Write(resp)
	if cw, ok := conn.(interface{ CloseWrite() error }); ok && cw.CloseWrite() == nil {
		// Draining ends at the client's close, the deadline or any error alike.
		_, _ = io.Copy(io.Discard, conn)
	}
	abortConn(conn)
}
