package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/wire"
)

// readOnlyConn is a daemon-side transport that records any write instead of
// sending it: the read path has nothing to say to the peer.
type readOnlyConn struct {
	net.Conn
	wrote atomic.Bool
}

func (c *readOnlyConn) Write(p []byte) (int, error) {
	c.wrote.Store(true)
	return len(p), nil
}

// pipeServer returns a daemon-side WSConn on one end of a net.Pipe, and the
// raw client end; the test fails if the WSConn writes anything. A pipe has
// no buffer: a Write returns once the other side has read every byte of it,
// so after a raw client Write the WSConn has consumed exactly what was sent
// and is blocked asking for more.
func pipeServer(t *testing.T) (*WSConn, net.Conn) {
	t.Helper()
	srvEnd, cliEnd := net.Pipe()
	conn := &readOnlyConn{Conn: srvEnd}
	t.Cleanup(func() {
		cliEnd.Close()
		srvEnd.Close()
		if conn.wrote.Load() {
			t.Error("the reader wrote to the peer")
		}
	})
	return &WSConn{conn: conn, writeTimeout: dialWriteTimeout}, cliEnd
}

// frameHeader encodes the length that announces an n-byte message.
func frameHeader(n int) []byte { return binary.LittleEndian.AppendUint32(nil, uint32(n)) }

// frame is payload behind its length, as WriteBinary sends it.
func frame(payload []byte) []byte { return append(frameHeader(len(payload)), payload...) }

type readResult struct {
	msg []byte
	err error
	// payloadCap is cap(ws.payload) as the reading goroutine saw it on return.
	payloadCap int
}

// readAsync runs n ReadMessage calls on their own goroutine (the pipe needs
// the two ends driven concurrently), delivering a copy of each result.
func readAsync(ws *WSConn, n int) <-chan readResult {
	out := make(chan readResult, n)
	go func() {
		for i := 0; i < n; i++ {
			msg, err := ws.ReadMessage()
			out <- readResult{msg: bytes.Clone(msg), err: err, payloadCap: cap(ws.payload)}
			if err != nil {
				return
			}
		}
	}()
	return out
}

func mustWrite(t *testing.T, c net.Conn, p []byte) {
	t.Helper()
	if _, err := c.Write(p); err != nil {
		t.Fatalf("raw write: %v", err)
	}
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// A length is a claim, not bytes: connections that announce a maximum-size
// message, deliver a fraction of it and stall must hold memory in
// proportion to what arrived, not to what was announced.
func TestStalledFrameHoldsOnlyWhatArrived(t *testing.T) {
	const (
		conns     = 32
		announced = DefaultMaxMessage
		sent      = 40 << 10
	)
	partial := append(frameHeader(announced), make([]byte, sent)...)
	results := make([]<-chan readResult, conns)
	clients := make([]net.Conn, conns)

	before := liveHeap()
	for i := range clients {
		var ws *WSConn
		ws, clients[i] = pipeServer(t)
		results[i] = readAsync(ws, 1)
		mustWrite(t, clients[i], partial)
	}
	growth := int64(liveHeap()) - int64(before)

	// Amortised growth may hold up to twice what arrived, plus the chunk being
	// filled; the announced size would be 32 MiB across these connections.
	const perConn = 2*sent + 2*payloadChunk
	t.Logf("%d bytes held per stalled connection (%d sent, %d announced)", growth/conns, sent, announced)
	if growth > conns*perConn {
		t.Fatalf("%d stalled connections that sent %d of %d announced bytes grew the heap by %d bytes (%d each), want <= %d each",
			conns, sent, announced, growth, growth/conns, perConn)
	}
	for i, c := range clients {
		c.Close()
		if res := <-results[i]; !errors.Is(res.err, io.ErrUnexpectedEOF) {
			t.Fatalf("conn %d: read of a truncated message returned %v, want io.ErrUnexpectedEOF", i, res.err)
		}
	}
}

// Messages pipelined in one segment are all served, including those whose
// length straddles the end of the inline read buffer.
func TestPipelinedFramesAcrossReadBuffer(t *testing.T) {
	ws, cli := pipeServer(t)
	const frames = 60
	var burst []byte
	want := make([]string, frames)
	for i := range want {
		want[i] = strings.Repeat(string(rune('a'+i%26)), 20+i%17)
		burst = append(burst, frame([]byte(want[i]))...)
	}
	if len(burst) < 3*firstReadSize {
		t.Fatalf("burst of %d bytes does not span the %d-byte read buffer", len(burst), firstReadSize)
	}
	res := readAsync(ws, frames)
	mustWrite(t, cli, burst)
	for i, w := range want {
		if r := <-res; r.err != nil || string(r.msg) != w {
			t.Fatalf("message %d: got %q, %v; want %q", i, r.msg, r.err, w)
		}
	}
}

// A length over DefaultMaxMessage is refused with ErrTooLarge as soon as its
// four bytes arrive: no payload is awaited or buffered. A message exactly at
// the cap is read whole.
func TestLengthCap(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    uint32
	}{
		{"one past the cap", DefaultMaxMessage + 1},
		{"largest length", math.MaxUint32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws, cli := pipeServer(t)
			res := readAsync(ws, 1)
			mustWrite(t, cli, binary.LittleEndian.AppendUint32(nil, tc.n))
			if r := <-res; r.err != ErrTooLarge || r.payloadCap != 0 {
				t.Fatalf("read returned %v with a %d-byte buffer, want ErrTooLarge and none", r.err, r.payloadCap)
			}
		})
	}
	t.Run("exactly at the cap", func(t *testing.T) {
		ws, cli := pipeServer(t)
		res := readAsync(ws, 1)
		mustWrite(t, cli, frame(make([]byte, DefaultMaxMessage)))
		if r := <-res; r.err != nil || len(r.msg) != DefaultMaxMessage {
			t.Fatalf("read %d bytes, %v; want the %d-byte message", len(r.msg), r.err, DefaultMaxMessage)
		}
	})
}

// How a stream ends is what the read reports: between messages
// ErrConnClosed, inside the length or the payload io.ErrUnexpectedEOF.
func TestEndOfStream(t *testing.T) {
	for _, tc := range []struct {
		name string
		sent []byte
		want error
	}{
		{"between messages", frame([]byte("last")), ErrConnClosed},
		{"inside the length", frameHeader(7)[:2], io.ErrUnexpectedEOF},
		{"inside the payload", frame([]byte("cut short"))[:9], io.ErrUnexpectedEOF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws, cli := pipeServer(t)
			res := readAsync(ws, 2)
			mustWrite(t, cli, tc.sent)
			cli.Close()
			r := <-res
			if tc.want == ErrConnClosed {
				if r.err != nil || string(r.msg) != "last" {
					t.Fatalf("first read %q, %v; want the message sent", r.msg, r.err)
				}
				r = <-res
			}
			if r.err != tc.want {
				t.Fatalf("read returned %v, want %v", r.err, tc.want)
			}
		})
	}
}

// For any bytes a peer sends, in any read sizes, a daemon-side ReadMessage
// never panics and never writes (chunkConn has no Write to call): each
// message it returns is, framed again, exactly the bytes it arrived as; a
// length over the cap ends the stream in ErrTooLarge before the payload
// buffer grows; the buffer never runs more than payloadChunk past the
// payload bytes that arrived; and the stream ends in ErrConnClosed between
// messages and io.ErrUnexpectedEOF inside one.
func FuzzReadMessage(f *testing.F) {
	f.Add(frame(wire.AppendPosition(nil, geom.Pt(1, 2))), uint8(0))
	f.Add(append(frame(wire.AppendQuery(nil, wire.Query{ReqID: 1, K: 5, Loc: geom.Pt(3, 4)})), frame(nil)...), uint8(7))
	f.Add(frame(bytes.Repeat([]byte{0xA5}, 3*firstReadSize)), uint8(63))
	f.Add(append(frame([]byte("ok")), frameHeader(DefaultMaxMessage+1)...), uint8(2))
	f.Add(frameHeader(DefaultMaxMessage), uint8(3))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}, uint8(1))
	f.Add(frame([]byte("cut short"))[:7], uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		ws := &WSConn{conn: &chunkConn{data: data, chunk: int(chunk%64) + 1}}
		for off := 0; ; {
			before := len(ws.payload)
			msg, err := ws.ReadMessage()
			rest := data[off:]
			if len(rest) == 0 {
				if err != ErrConnClosed {
					t.Fatalf("at the end of the stream read %d bytes, %v; want ErrConnClosed", len(msg), err)
				}
				return
			}
			if len(rest) < lenSize {
				if err != io.ErrUnexpectedEOF {
					t.Fatalf("inside a length read %d bytes, %v; want io.ErrUnexpectedEOF", len(msg), err)
				}
				return
			}
			n := int(binary.LittleEndian.Uint32(rest))
			switch arrived := len(rest) - lenSize; {
			case n > DefaultMaxMessage:
				if err != ErrTooLarge || len(ws.payload) > before {
					t.Fatalf("length %d: read %v, buffer %d -> %d bytes; want ErrTooLarge and no growth", n, err, before, len(ws.payload))
				}
				return
			case arrived < n:
				if err != io.ErrUnexpectedEOF || len(ws.payload) > arrived+payloadChunk {
					t.Fatalf("%d of %d bytes arrived: read %v, buffer %d bytes; want io.ErrUnexpectedEOF, at most %d",
						arrived, n, err, len(ws.payload), arrived+payloadChunk)
				}
				return
			}
			if err != nil || !bytes.Equal(frame(msg), rest[:lenSize+n]) {
				t.Fatalf("message at %d: read %d bytes, %v; want the %d bytes framed there", off, len(msg), err, n)
			}
			off += lenSize + n
		}
	})
}

// A buffer grown for one large message is not pinned by the connection once
// it goes back to waiting.
func TestLargeMessageBufferDroppedWhenParked(t *testing.T) {
	ws, cli := pipeServer(t)
	res := readAsync(ws, 2)
	big := bytes.Repeat([]byte{0xA5}, 70000)
	mustWrite(t, cli, frame(big))
	if r := <-res; r.err != nil || !bytes.Equal(r.msg, big) {
		t.Fatalf("large message corrupted (%d bytes, %v)", len(r.msg), r.err)
	} else if r.payloadCap < len(big) {
		t.Fatalf("payload cap %d below the %d-byte message it returned", r.payloadCap, len(big))
	}
	mustWrite(t, cli, frame([]byte("small")))
	if r := <-res; r.err != nil || string(r.msg) != "small" {
		t.Fatalf("got %q, %v", r.msg, r.err)
	} else if r.payloadCap > maxParkedPayload {
		t.Fatalf("connection still holds a %d-byte buffer after parking (cap %d)", r.payloadCap, maxParkedPayload)
	}
}

// The parking trim is the daemon's: a DialWS connection keeps the buffer its
// largest message grew, because a relaying client's steady-state message is
// a PeerShares well past maxParkedPayload (13.25 KB at 32 shares) and
// re-growing it every exchange would allocate on each one.
func TestClientKeepsMessageBufferWhenParked(t *testing.T) {
	server, client := upgradedPair(t)
	big := bytes.Repeat([]byte{0x5A}, 13<<10)
	sent := make(chan error, 1)
	go func() { sent <- server.WriteBinary(big) }()
	if msg, err := client.ReadMessage(); err != nil || !bytes.Equal(msg, big) {
		t.Fatalf("large message corrupted (%d bytes, %v)", len(msg), err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	// Sent only now, so the client's next read starts parked, nothing unread.
	if err := server.WriteBinary([]byte("small")); err != nil {
		t.Fatal(err)
	}
	if msg, err := client.ReadMessage(); err != nil || string(msg) != "small" {
		t.Fatalf("got %q, %v", msg, err)
	}
	if cap(client.payload) < len(big) {
		t.Fatalf("client dropped its %d-byte buffer while parked (cap now %d)", len(big), cap(client.payload))
	}
}
