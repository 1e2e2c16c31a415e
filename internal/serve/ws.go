// Package serve lifts the SENN query engine out of the closed-loop
// simulator into a long-running network service: the paper's architecture
// (§3) made literal, with a remote spatial database answering kNN/range
// queries from mobile clients that cache, share, and verify results. A
// client opens a WebSocket, which is its session, streams position
// updates, and issues queries as internal/wire binary messages;
// answers carry the certain-region metadata (query location + complete
// ascending neighbor set) that the simulator's hosts exchange, so a network
// client can run exactly the verification lemmas a simulated host does.
//
// Everything is stdlib and nothing is net/http: the WebSocket layer below is
// a minimal RFC 6455 implementation (masking, fragmentation, control frames,
// the client's handshake), the daemon reads every request head itself and
// answers its few HTTP routes and the WebSocket upgrade from the
// connection's own buffer (admit.go), and the on-disk POI store is
// fixed-size pages read and written with package os (store.go).
package serve

import (
	"bytes"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
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

	"repro/internal/mobility"
)

// RFC 6455 opcodes.
const (
	opContinuation byte = 0x0
	opText         byte = 0x1
	opBinary       byte = 0x2
	opClose        byte = 0x8
	opPing         byte = 0x9
	opPong         byte = 0xA
)

// wsGUID is the fixed handshake GUID of RFC 6455 §1.3.
const wsGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// DefaultMaxMessage bounds a reassembled message (1 MiB — comfortably above
// the largest well-formed wire answer, AnswerSize(MaxQueryK) ≈ 96 KiB).
const DefaultMaxMessage = 1 << 20

// firstReadSize is the inline buffer every blocking transport read lands in —
// all the read-side memory an idle connection holds. It is sized so the
// protocol's steady-state client frames (Position, Query, PeerRequest, a
// ShareReply carrying a 16-neighbor cache: 423 bytes framed) arrive whole in
// that one read; a longer payload's remainder is read straight into the
// message buffer, so no second buffer is ever needed.
const firstReadSize = 512

// payloadChunk bounds how far the message buffer grows ahead of the bytes
// that have actually arrived: a frame header may announce up to maxMsg, but a
// peer that then stalls has pinned one chunk, not the announced size.
const payloadChunk = 16 << 10

// maxParkedPayload is the largest message buffer a daemon-side connection
// keeps while it waits for the next message; one grown for a rare large
// message is dropped instead of being pinned by an idle session. DialWS
// connections keep theirs: a client's steady-state PeerShares is larger.
const maxParkedPayload = 4 << 10

// flushThreshold is the write-coalescing limit of a server-side connection:
// WriteBinaryBatched holds frames back until this many bytes are pending.
const flushThreshold = 2048

// dialWriteTimeout bounds every transport write of a DialWS connection
// (flushLocked); the daemon's connections use the relay timeout (runConn).
const dialWriteTimeout = 5 * time.Second

// Errors surfaced by the WebSocket layer.
var (
	// ErrConnClosed reports an orderly close handshake from the peer.
	ErrConnClosed = errors.New("serve: websocket closed by peer")
	// ErrProtocol reports a framing violation; the connection is torn down.
	ErrProtocol = errors.New("serve: websocket protocol error")
	// ErrTooLarge reports a frame or message beyond the size cap.
	ErrTooLarge = errors.New("serve: websocket message too large")
)

// acceptKey computes the Sec-WebSocket-Accept value for a handshake key.
func acceptKey(key string) string { return string(appendAcceptKey(nil, []byte(key))) }

// appendAcceptKey appends the Sec-WebSocket-Accept value for key to dst. The
// daemon's handshake keys fit its head buffer, so hashing them takes no
// allocation.
func appendAcceptKey(dst, key []byte) []byte {
	var in [firstReadSize + len(wsGUID)]byte
	sum := sha1.Sum(append(append(in[:0], key...), wsGUID...)) // mandated by RFC 6455 §4.2.2; not used for security
	return base64.StdEncoding.AppendEncode(dst, sum[:])
}

// WSConn is one WebSocket connection carrying binary messages. Reads must
// come from a single goroutine; writes are internally serialized, so the
// reader's automatic pong replies never interleave with application frames.
//
// Writes are coalesced on connections the daemon admits (admit.go):
// WriteBinaryBatched appends the frame to a pending buffer and only hits the
// transport once the buffer passes flushThreshold (or an immediate write /
// explicit Flush drains it); on DialWS connections every write flushes. A
// fan-out workload — one answer or relayed share per peer — then costs one
// syscall per few frames instead of one per frame. ReadMessage flushes the
// pending buffer before it can block on an idle transport, so a batched
// reply never waits on traffic that will not come.
type WSConn struct {
	conn net.Conn
	// unread is the window of transport bytes read but not yet parsed. It
	// aliases first: the handshake's head — the request on the daemon's
	// side, the 101 on DialWS's — is read into first, and unread starts as
	// whatever arrived behind it.
	unread []byte
	first  [firstReadSize]byte
	// payload is the connection's one message buffer: every frame's payload
	// is read into it and ReadMessage returns a slice of it.
	payload []byte
	// client marks which masking role this side plays: per RFC 6455 §5.1 a
	// client masks every frame it sends and requires unmasked frames from
	// the server; a server does the reverse.
	client bool
	maxMsg int

	wmu sync.Mutex
	// pending accumulates encoded frames between flushes. Immediate writes
	// append and flush in one step, so frame order on the transport is
	// always the order the write calls acquired wmu.
	pending []byte
	// batch arms write coalescing (set at admission, before the connection
	// is shared); without it every write flushes immediately.
	batch bool
	// writeTimeout bounds every transport write (flushLocked), set at
	// creation. writeTimedOut records that a write missed it, which closed
	// the transport.
	writeTimeout  time.Duration
	writeTimedOut atomic.Bool
	// maskRNG generates frame mask keys on the client side. Masking exists
	// to defeat proxy cache poisoning, not cryptanalysis, so a fast stream
	// seeded once from crypto/rand is appropriate.
	maskRNG mobility.SplitMix64

	closeOnce sync.Once
	closeErr  error
}

// newWSConn wraps the client side of conn, before its handshake.
func newWSConn(conn net.Conn) *WSConn {
	c := &WSConn{conn: conn, client: true, maxMsg: DefaultMaxMessage, writeTimeout: dialWriteTimeout}
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err == nil {
		c.maskRNG = mobility.SplitMix64(binary.LittleEndian.Uint64(seed[:]))
	}
	return c
}

// SetReadDeadline bounds how long ReadMessage may block.
func (c *WSConn) SetReadDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }

// ReadMessage returns the next complete binary message, transparently
// answering pings and skipping pongs. It returns ErrConnClosed after an
// orderly close from the peer. The returned slice is the connection's own
// message buffer: it is valid until the next ReadMessage call, so a caller
// that keeps the bytes must copy them (wire.Decode and its variants do).
func (c *WSConn) ReadMessage() ([]byte, error) {
	if !c.client && len(c.unread) == 0 && cap(c.payload) > maxParkedPayload {
		c.payload = nil // parking: see maxParkedPayload
	}
	// A fragmented message accumulates in payload[:assembled]; each further
	// frame (interleaved control frames included) is read in behind it.
	assembled, assembling := 0, false
	for {
		// About to (possibly) block on the transport: anything batched for
		// this connection must go out first, or a coalesced reply would wait
		// on the peer's next request.
		if c.batch && len(c.unread) == 0 {
			if err := c.Flush(); err != nil {
				return nil, err
			}
		}
		fin, op, n, err := c.readFrame(assembled)
		if err != nil {
			return nil, err
		}
		payload := c.payload[assembled : assembled+n]
		switch op {
		case opPing:
			if err := c.writeFrame(opPong, payload); err != nil {
				return nil, err
			}
		case opPong:
			// Unsolicited pongs are legal and ignored (§5.5.3).
		case opClose:
			// Echo the close (§5.5.1), then tear down the transport.
			code := payload
			if len(code) > 2 {
				code = code[:2]
			}
			c.shutdown(code)
			return nil, ErrConnClosed
		case opBinary:
			if assembling {
				return nil, c.fail("binary frame inside a fragmented message")
			}
			if fin {
				return payload, nil
			}
			assembled, assembling = n, true
		case opContinuation:
			if !assembling {
				return nil, c.fail("continuation without a started message")
			}
			assembled += n
			if fin {
				return c.payload[:assembled], nil
			}
		case opText:
			return nil, c.fail("text frames are not part of this protocol")
		default:
			return nil, c.fail(fmt.Sprintf("reserved opcode %#x", op))
		}
	}
}

// WriteBinary sends one binary message as a single frame, flushing any
// batched frames ahead of it so transport order matches write order.
func (c *WSConn) WriteBinary(p []byte) error { return c.writeFrame(opBinary, p) }

// WriteBinaryBatched queues one binary message, deferring the transport
// write until the pending buffer reaches the flush threshold (or the next
// immediate write / Flush / pre-block flush in ReadMessage). The payload is
// copied into the pending buffer before return, so the caller may reuse p.
// On a DialWS connection it is identical to WriteBinary.
func (c *WSConn) WriteBinaryBatched(p []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.pending = c.appendFrame(c.pending, opBinary, p)
	if c.batch && len(c.pending) < flushThreshold {
		return nil
	}
	return c.flushLocked()
}

// Flush writes any batched frames to the transport.
func (c *WSConn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.flushLocked()
}

// Close performs the closing handshake (best effort) and closes the
// transport. Safe to call multiple times and concurrently with a reader.
func (c *WSConn) Close() error {
	c.shutdown([]byte{0x03, 0xE8}) // 1000: normal closure
	return c.closeErr
}

// fail sends a 1002 (protocol error) close and returns ErrProtocol.
func (c *WSConn) fail(reason string) error {
	c.shutdown([]byte{0x03, 0xEA}) // 1002
	return fmt.Errorf("%w: %s", ErrProtocol, reason)
}

// goingAway sends a 1001 (going away) close: the server is shutting down.
func (c *WSConn) goingAway() { c.shutdown([]byte{0x03, 0xE9}) }

// close1009 sends a 1009 (message too big) close and returns ErrTooLarge.
func (c *WSConn) close1009() error {
	c.shutdown([]byte{0x03, 0xF1}) // 1009
	return ErrTooLarge
}

// shutdown runs the closing handshake exactly once: send the close frame
// best-effort and tear the transport down. A writer wedged behind a peer
// that stopped reading delays it by at most one write deadline
// (flushLocked). closeErr carries the teardown error for Close to return.
func (c *WSConn) shutdown(code []byte) {
	c.closeOnce.Do(func() {
		// The close frame is a best-effort courtesy (§5.5.1): the teardown
		// error from conn.Close is the one surfaced.
		_ = c.writeFrame(opClose, code)
		c.closeErr = c.conn.Close()
	})
}

// readFrame reads one frame, leaving its unmasked payload in
// c.payload[off:off+n]; off is the length of the fragmented message already
// assembled there.
func (c *WSConn) readFrame(off int) (fin bool, op byte, n int, err error) {
	if err := c.fill(2); err != nil {
		return false, 0, 0, err
	}
	h0, h1 := c.unread[0], c.unread[1]
	fin = h0&0x80 != 0
	if h0&0x70 != 0 {
		return false, 0, 0, c.fail("nonzero RSV bits without a negotiated extension")
	}
	op = h0 & 0x0F
	masked := h1&0x80 != 0
	size := uint64(h1 & 0x7F)
	if op >= opClose { // control frame constraints (§5.5)
		if !fin || size > 125 {
			return false, 0, 0, c.fail("fragmented or oversized control frame")
		}
	}
	hdr := 2
	switch size {
	case 126:
		if err := c.fill(hdr + 2); err != nil {
			return false, 0, 0, err
		}
		size = uint64(binary.BigEndian.Uint16(c.unread[hdr:]))
		hdr += 2
	case 127:
		if err := c.fill(hdr + 8); err != nil {
			return false, 0, 0, err
		}
		size = binary.BigEndian.Uint64(c.unread[hdr:])
		hdr += 8
	}
	// The cap holds for the reassembled message, not just this frame, and is
	// enforced before any of the payload is read. (The first clause also keeps
	// a near-2^64 announcement from wrapping the sum.)
	if size > uint64(c.maxMsg) || (op < opClose && uint64(off)+size > uint64(c.maxMsg)) {
		return false, 0, 0, c.close1009()
	}
	// §5.1: exactly one side masks. A client expects unmasked server
	// frames; a server expects masked client frames.
	if masked == c.client {
		return false, 0, 0, c.fail("frame masking violates RFC 6455 §5.1")
	}
	var key [4]byte
	if masked {
		if err := c.fill(hdr + 4); err != nil {
			return false, 0, 0, err
		}
		copy(key[:], c.unread[hdr:])
		hdr += 4
	}
	c.unread = c.unread[hdr:]
	n = int(size)
	if err := c.readPayload(off, n); err != nil {
		return false, 0, 0, err
	}
	if masked {
		payload := c.payload[off : off+n]
		for i := range payload {
			payload[i] ^= key[i&3]
		}
	}
	return fin, op, n, nil
}

// fill blocks until at least need unread bytes are buffered; need is a frame
// header length, far below len(first). What is left of the old window moves
// to the front of first and the transport read lands behind it, so a
// connection parked here holds no buffer but first.
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

// readPayload reads the current frame's n payload bytes into
// c.payload[off:off+n]. The buffer grows as the bytes arrive, at most
// payloadChunk ahead of them, never on the frame header's say-so.
func (c *WSConn) readPayload(off, n int) error {
	c.payload = c.payload[:off]
	for end := off + n; len(c.payload) < end; {
		have := len(c.payload)
		step := min(end-have, payloadChunk)
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

// writeFrame emits one complete frame, flushing it (and any batched frames
// queued before it) in a single transport write.
func (c *WSConn) writeFrame(op byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.pending = c.appendFrame(c.pending, op, payload)
	return c.flushLocked()
}

// appendFrame encodes one frame (header, optional mask, payload) onto dst.
// Callers hold wmu: the mask RNG advances per frame.
func (c *WSConn) appendFrame(dst []byte, op byte, payload []byte) []byte {
	buf := append(dst, 0x80|op)
	maskBit := byte(0)
	if c.client {
		maskBit = 0x80
	}
	n := len(payload)
	switch {
	case n < 126:
		buf = append(buf, maskBit|byte(n))
	case n < 1<<16:
		buf = append(buf, maskBit|126, byte(n>>8), byte(n))
	default:
		buf = append(buf, maskBit|127)
		var ext [8]byte
		binary.BigEndian.PutUint64(ext[:], uint64(n))
		buf = append(buf, ext[:]...)
	}
	if c.client {
		var key [4]byte
		binary.LittleEndian.PutUint32(key[:], uint32(c.maskRNG.Uint64()))
		buf = append(buf, key[:]...)
		start := len(buf)
		buf = append(buf, payload...)
		for i := start; i < len(buf); i++ {
			buf[i] ^= key[(i-start)&3]
		}
	} else {
		buf = append(buf, payload...)
	}
	return buf
}

// flushLocked writes the pending buffer in one transport write, the only
// place a frame or an HTTP answer reaches the transport. Callers hold wmu,
// which serializes whole frames, so every write carries the connection's
// deadline: a peer that stops reading holds wmu for at most writeTimeout,
// whichever goroutine is writing. A write that misses it may have cut a
// frame on a live transport, so it closes the connection and the reader
// ends; any other failed write found the transport dead already, and the
// reader sees how it ended. The buffer is recycled either way, its unsent
// frames moot.
func (c *WSConn) flushLocked() error {
	if len(c.pending) == 0 {
		return nil
	}
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

// DialWS performs the client side of the opening handshake against a ws://
// (or http://) URL and returns the connection.
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
	var keyRaw [16]byte
	if _, err := rand.Read(keyRaw[:]); err != nil {
		abortConn(conn)
		return nil, fmt.Errorf("serve: dial: %w", err)
	}
	key := base64.StdEncoding.EncodeToString(keyRaw[:])
	c := newWSConn(conn)
	c.pending = append(c.pending, "GET "+u.RequestURI()+" HTTP/1.1\r\n"+
		"Host: "+u.Host+"\r\n"+
		"Upgrade: websocket\r\n"+
		"Connection: Upgrade\r\n"+
		"Sec-WebSocket-Key: "+key+"\r\n"+
		"Sec-WebSocket-Version: 13\r\n\r\n"...)
	if err := c.Flush(); err != nil {
		abortConn(conn)
		return nil, fmt.Errorf("serve: dial: %w", err)
	}
	if err := c.readSwitch(key); err != nil {
		abortConn(conn)
		return nil, fmt.Errorf("serve: dial: %w", err)
	}
	return c, nil
}

// readSwitch reads the server's answer to the opening handshake into
// c.first and checks it is the 101 for key; the frames that arrived behind
// it are left unread. The answer's head must fit c.first, as the daemon's
// 129-byte 101 does.
func (c *WSConn) readSwitch(key string) error {
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
		if name, value, _ := bytes.Cut(line, []byte(":")); bytes.EqualFold(name, []byte("Sec-WebSocket-Accept")) &&
			string(bytes.TrimSpace(value)) == acceptKey(key) {
			return nil
		}
	}
	return errors.New("handshake answered without the Sec-WebSocket-Accept for its key")
}
