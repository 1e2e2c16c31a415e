// Package serve lifts the SENN query engine out of the closed-loop
// simulator into a long-running network service: the paper's architecture
// (§3) made literal, with a remote spatial database answering kNN/range
// queries from mobile clients that cache, share, and verify results. A
// client opens the query channel — one HTTP/1.1 upgrade to senn/1, which is
// its session — streams position updates, and issues queries as
// internal/wire binary messages; answers carry the certain-region metadata
// (query location + complete ascending neighbor set) that the simulator's
// hosts exchange, so a network client can run exactly the verification
// lemmas a simulated host does.
//
// Everything is stdlib and nothing is net/http: a message on the query
// channel is its 4-byte little-endian length and then its wire bytes (the
// framer below, which also holds the client's handshake), the daemon reads
// every request head itself and answers its few HTTP routes and the upgrade
// from the connection's own buffer (admit.go), and the on-disk POI store is
// a header and then the points in row order, read and written with package
// os (store.go).
package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// upgradeToken names the query channel's protocol in the handshake's
// Upgrade header: length-prefixed internal/wire messages of wire version 1.
// A wire version bump renames it with the version byte.
const upgradeToken = "senn/1"

// DefaultMaxMessage bounds a message (1 MiB — comfortably above the largest
// well-formed wire answer, AnswerSize(MaxQueryK) ≈ 96 KiB). The relay bounds
// the PeerShares aggregates it delivers by it too, so a requester can always
// read its reply.
const DefaultMaxMessage = 1 << 20

// lenSize is the width of the length that precedes every message.
const lenSize = 4

// firstReadSize is the inline buffer every blocking transport read lands in —
// all the read-side memory an idle connection holds. It is sized so the
// protocol's steady-state client messages (Position, Query, PeerRequest, a
// ShareReply carrying a 16-neighbor cache: 419 bytes framed) arrive whole in
// that one read; a longer payload's remainder is read straight into the
// message buffer, so no second buffer is ever needed.
const firstReadSize = 512

// payloadChunk bounds how far the message buffer grows ahead of the bytes
// that have actually arrived: a length may announce up to DefaultMaxMessage,
// but a peer that then stalls has pinned one chunk, not the announced size.
const payloadChunk = 16 << 10

// maxParkedPayload is the largest message buffer a daemon-side connection
// keeps while it waits for the next message; one grown for a rare large
// message is dropped instead of being pinned by an idle session. DialWS
// connections keep theirs: a client's steady-state PeerShares is larger.
const maxParkedPayload = 4 << 10

// dialWriteTimeout bounds every transport write of a DialWS connection
// (flushLocked); the daemon's connections use the relay timeout (runConn).
const dialWriteTimeout = 5 * time.Second

// Errors surfaced by ReadMessage.
var (
	// ErrConnClosed reports that the peer ended the stream between messages.
	ErrConnClosed = errors.New("serve: connection closed by peer")
	// ErrTooLarge reports a length beyond DefaultMaxMessage; none of the
	// message was read.
	ErrTooLarge = errors.New("serve: message too large")
)

// WSConn is one query-channel connection carrying binary messages, each
// written in one transport write as it is made. Reads must come from a
// single goroutine and never write; writes are serialized, so concurrent
// writers never interleave their messages.
type WSConn struct {
	conn net.Conn
	// unread is the window of transport bytes read but not yet parsed. It
	// aliases first: the handshake's head — the request on the daemon's
	// side, the 101 on DialWS's — is read into first, and unread starts as
	// whatever arrived behind it.
	unread []byte
	first  [firstReadSize]byte
	// payload is the connection's one message buffer: every message is read
	// into it and ReadMessage returns it.
	payload []byte
	// client marks a DialWS connection, which keeps its message buffer
	// while parked (maxParkedPayload).
	client bool

	wmu sync.Mutex
	// pending is the write buffer: the message (or, during admission, the
	// HTTP answer) on its way to the transport.
	pending []byte
	// writeTimeout bounds every transport write (flushLocked), set at
	// creation. writeTimedOut records that a write missed it, which closed
	// the transport.
	writeTimeout  time.Duration
	writeTimedOut atomic.Bool
}

// SetReadDeadline bounds how long ReadMessage may block.
func (c *WSConn) SetReadDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }

// ReadMessage returns the next message. It returns ErrConnClosed when the
// stream ends between messages, io.ErrUnexpectedEOF when it ends inside one,
// and ErrTooLarge, before reading any of the payload, when the length
// exceeds DefaultMaxMessage. The returned slice is the connection's own
// message buffer: it is valid until the next ReadMessage call, so a caller
// that keeps the bytes must copy them (wire.Decode and its variants do).
func (c *WSConn) ReadMessage() ([]byte, error) {
	if !c.client && len(c.unread) == 0 && cap(c.payload) > maxParkedPayload {
		c.payload = nil // parking: see maxParkedPayload
	}
	if err := c.fill(lenSize); err != nil {
		if err == io.EOF {
			return nil, ErrConnClosed
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(c.unread)
	if n > DefaultMaxMessage {
		return nil, ErrTooLarge
	}
	c.unread = c.unread[lenSize:]
	if err := c.readPayload(int(n)); err != nil {
		return nil, err
	}
	return c.payload, nil
}

// WriteBinary sends one message, its length and p in one transport write.
func (c *WSConn) WriteBinary(p []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.pending = binary.LittleEndian.AppendUint32(c.pending[:0], uint32(len(p)))
	c.pending = append(c.pending, p...)
	return c.flushLocked()
}

// Close closes the transport. Safe to call concurrently with a reader and
// writers, which it unblocks; a second call reports the transport closed.
func (c *WSConn) Close() error { return c.conn.Close() }

// fill blocks until at least need unread bytes are buffered; need is the
// length's width, far below len(first). What is left of the old window
// moves to the front of first and the transport read lands behind it, so a
// connection parked here holds no buffer but first. An end of stream is
// io.EOF with nothing buffered and io.ErrUnexpectedEOF with part of the
// length.
func (c *WSConn) fill(need int) error {
	for len(c.unread) < need {
		have := copy(c.first[:], c.unread)
		n, err := c.conn.Read(c.first[have:])
		c.unread = c.first[:have+n]
		if err != nil && len(c.unread) < need {
			if err == io.EOF && len(c.unread) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// readPayload reads the current message's n bytes into c.payload[:n]. The
// buffer grows as the bytes arrive, at most payloadChunk ahead of them,
// never on the length's say-so.
func (c *WSConn) readPayload(n int) error {
	c.payload = c.payload[:0]
	for len(c.payload) < n {
		have := len(c.payload)
		step := min(n-have, payloadChunk)
		c.payload = slices.Grow(c.payload, step)[:have+step]
		// Buffered bytes first; the rest straight from the transport into
		// place, with no intermediate buffer.
		got := copy(c.payload[have:], c.unread)
		c.unread = c.unread[got:]
		if _, err := io.ReadFull(c.conn, c.payload[have+got:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// flush writes the pending buffer: the handshake's request and answers,
// which go out before the connection has a second writer.
func (c *WSConn) flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.flushLocked()
}

// flushLocked writes the pending buffer in one transport write, the only
// place a message or an HTTP answer reaches the transport. Callers hold
// wmu, which serializes whole messages, so every write carries the
// connection's deadline: a peer that stops reading holds wmu for at most
// writeTimeout, whichever goroutine is writing. A write that misses it may
// have cut a message on a live transport, so it closes the connection and
// the reader ends; any other failed write found the transport dead already,
// and the reader sees how it ended. The buffer is recycled either way.
func (c *WSConn) flushLocked() error {
	err := c.conn.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	if err == nil {
		_, err = c.conn.Write(c.pending)
	}
	c.pending = c.pending[:0]
	if errors.Is(err, os.ErrDeadlineExceeded) {
		c.writeTimedOut.Store(true)
		// The missed deadline is the error reported; closing the
		// transport can only fail if it is already closed.
		_ = c.conn.Close()
	}
	return err
}

// abortConn tears down a half-made connection on a handshake failure path,
// where the handshake error already in flight is the informative one.
func abortConn(conn net.Conn) {
	_ = conn.Close()
}

// appendUpgradeRequest appends the handshake DialWS sends for u to dst.
func appendUpgradeRequest(dst []byte, u *url.URL) []byte {
	return append(dst, "GET "+u.RequestURI()+" HTTP/1.1\r\n"+
		"Host: "+u.Host+"\r\n"+
		"Upgrade: "+upgradeToken+"\r\n"+
		"Connection: Upgrade\r\n\r\n"...)
}

// DialWS opens the query channel at a ws:// (or http://) URL: it sends the
// upgrade to senn/1 and returns the connection once the daemon's 101 names
// that protocol.
func DialWS(rawURL string) (*WSConn, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("serve: dial: %w", err)
	}
	switch u.Scheme {
	case "ws", "http":
	default:
		return nil, fmt.Errorf("serve: dial: unsupported scheme %q (TLS is not implemented)", u.Scheme)
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	conn, err := net.Dial("tcp", host)
	if err != nil {
		return nil, fmt.Errorf("serve: dial: %w", err)
	}
	c := &WSConn{conn: conn, client: true, writeTimeout: dialWriteTimeout}
	c.pending = appendUpgradeRequest(c.pending, u)
	if err := c.flush(); err != nil {
		abortConn(conn)
		return nil, fmt.Errorf("serve: dial: %w", err)
	}
	if err := c.readSwitch(); err != nil {
		abortConn(conn)
		return nil, fmt.Errorf("serve: dial: %w", err)
	}
	return c, nil
}

// readSwitch reads the server's answer to the upgrade into c.first and
// checks it is a 101 to senn/1; the messages that arrived behind it are
// left unread. The answer's head must fit c.first, as the daemon's 74-byte
// 101 does.
func (c *WSConn) readSwitch() error {
	n, end := 0, -1
	for end < 0 {
		if n == len(c.first) {
			return fmt.Errorf("handshake answer longer than %d bytes", len(c.first))
		}
		m, err := c.conn.Read(c.first[n:])
		n += m
		if end = bytes.Index(c.first[:n], []byte("\r\n\r\n")); end < 0 && err != nil {
			return fmt.Errorf("read handshake: %w", err)
		}
	}
	c.unread = c.first[end+len("\r\n\r\n") : n]
	status, fields, _ := bytes.Cut(c.first[:end], []byte("\r\n"))
	if !bytes.HasPrefix(status, []byte("HTTP/1.1 101 ")) {
		return fmt.Errorf("handshake refused: %s: %s", status, bytes.TrimSpace(c.unread))
	}
	for _, line := range bytes.Split(fields, []byte("\r\n")) {
		if name, value, _ := bytes.Cut(line, []byte(":")); bytes.EqualFold(name, []byte("Upgrade")) &&
			string(bytes.TrimSpace(value)) == upgradeToken {
			return nil
		}
	}
	return errors.New("handshake switched to a protocol other than " + upgradeToken)
}
