package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
)

// pipeServer returns a server-side WSConn (it requires masked frames) on one
// end of a net.Pipe, and the raw client end. A pipe has no buffer: a Write
// returns once the other side has read every byte of it, so after a raw
// client Write the WSConn has consumed exactly what was sent and is blocked
// asking for more.
func pipeServer(t *testing.T) (*WSConn, net.Conn) {
	t.Helper()
	srvEnd, cliEnd := net.Pipe()
	t.Cleanup(func() {
		cliEnd.Close()
		srvEnd.Close()
	})
	return newWSConn(srvEnd, bufio.NewReader(strings.NewReader("")), false), cliEnd
}

var testMaskKey = [4]byte{0x12, 0x34, 0x56, 0x78}

// clientFrameHeader encodes a masked frame header announcing n payload bytes.
func clientFrameHeader(fin bool, op byte, n int) []byte {
	b0 := op
	if fin {
		b0 |= 0x80
	}
	buf := []byte{b0}
	switch {
	case n < 126:
		buf = append(buf, 0x80|byte(n))
	case n < 1<<16:
		buf = append(buf, 0x80|126, byte(n>>8), byte(n))
	default:
		buf = append(buf, 0x80|127)
		buf = binary.BigEndian.AppendUint64(buf, uint64(n))
	}
	return append(buf, testMaskKey[:]...)
}

// masked returns payload XORed with the test mask key.
func masked(payload []byte) []byte {
	out := make([]byte, len(payload))
	for i, b := range payload {
		out[i] = b ^ testMaskKey[i&3]
	}
	return out
}

func clientFrame(fin bool, op byte, payload []byte) []byte {
	return append(clientFrameHeader(fin, op, len(payload)), masked(payload)...)
}

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

// A frame header is a claim, not bytes: connections that announce a
// maximum-size frame, deliver a fraction of it and stall must hold memory in
// proportion to what arrived, not to what was announced.
func TestStalledFrameHoldsOnlyWhatArrived(t *testing.T) {
	const (
		conns     = 32
		announced = DefaultMaxMessage
		sent      = 40 << 10
	)
	partial := append(clientFrameHeader(true, opBinary, announced), masked(make([]byte, sent))...)
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
			t.Fatalf("conn %d: read of a truncated frame returned %v, want io.ErrUnexpectedEOF", i, res.err)
		}
	}
}

// A fragmented message is reassembled in the connection's one buffer, with a
// ping between the fragments answered on the spot and not mixed into it.
func TestFragmentedMessageWithInterleavedPing(t *testing.T) {
	ws, cli := pipeServer(t)
	res := readAsync(ws, 2)

	mustWrite(t, cli, clientFrame(false, opBinary, []byte("ab")))
	mustWrite(t, cli, clientFrame(true, opPing, []byte("hello")))
	pong := make([]byte, 2+5)
	if _, err := io.ReadFull(cli, pong); err != nil {
		t.Fatal(err)
	}
	if want := append([]byte{0x80 | opPong, 5}, "hello"...); !bytes.Equal(pong, want) {
		t.Fatalf("pong = % x, want % x", pong, want)
	}
	mustWrite(t, cli, clientFrame(false, opContinuation, []byte("cd")))
	mustWrite(t, cli, clientFrame(true, opPong, nil)) // unsolicited, ignored
	mustWrite(t, cli, clientFrame(true, opContinuation, []byte("ef")))
	if r := <-res; r.err != nil || string(r.msg) != "abcdef" {
		t.Fatalf("reassembled %q, %v; want %q", r.msg, r.err, "abcdef")
	}

	// The buffer is reused: the next message starts from its beginning.
	mustWrite(t, cli, clientFrame(true, opBinary, []byte("xyz")))
	if r := <-res; r.err != nil || string(r.msg) != "xyz" {
		t.Fatalf("next message %q, %v; want %q", r.msg, r.err, "xyz")
	}
}

// Frames pipelined in one segment are all served, including those whose
// header straddles the end of the inline read buffer.
func TestPipelinedFramesAcrossReadBuffer(t *testing.T) {
	ws, cli := pipeServer(t)
	const frames = 60
	var burst []byte
	want := make([]string, frames)
	for i := range want {
		want[i] = strings.Repeat(string(rune('a'+i%26)), 20+i%17)
		burst = append(burst, clientFrame(true, opBinary, []byte(want[i]))...)
	}
	if len(burst) < 3*firstReadSize {
		t.Fatalf("burst of %d bytes does not span the %d-byte read buffer", len(burst), firstReadSize)
	}
	res := readAsync(ws, frames)
	mustWrite(t, cli, burst)
	for i, w := range want {
		if r := <-res; r.err != nil || string(r.msg) != w {
			t.Fatalf("frame %d: got %q, %v; want %q", i, r.msg, r.err, w)
		}
	}
}

// expectClose1009 reads the server's close frame off the raw client end.
func expectClose1009(t *testing.T, cli net.Conn) {
	t.Helper()
	frame := make([]byte, 4)
	if _, err := io.ReadFull(cli, frame); err != nil {
		t.Fatal(err)
	}
	if want := []byte{0x80 | opClose, 2, 0x03, 0xF1}; !bytes.Equal(frame, want) {
		t.Fatalf("close frame = % x, want % x (1009)", frame, want)
	}
}

// Oversized input is refused with a 1009 close before its payload is read:
// a single frame beyond the cap, and a fragmented message whose fragments
// each fit but whose sum does not.
func TestOversizeRefusedWith1009(t *testing.T) {
	t.Run("single frame", func(t *testing.T) {
		ws, cli := pipeServer(t)
		res := readAsync(ws, 1)
		mustWrite(t, cli, clientFrameHeader(true, opBinary, DefaultMaxMessage+1))
		expectClose1009(t, cli)
		if r := <-res; r.err != ErrTooLarge {
			t.Fatalf("read returned %v, want ErrTooLarge", r.err)
		}
	})
	t.Run("reassembled message", func(t *testing.T) {
		ws, cli := pipeServer(t)
		ws.maxMsg = 100
		res := readAsync(ws, 1)
		mustWrite(t, cli, clientFrame(false, opBinary, make([]byte, 60)))
		mustWrite(t, cli, clientFrameHeader(true, opContinuation, 41))
		expectClose1009(t, cli)
		if r := <-res; r.err != ErrTooLarge {
			t.Fatalf("read returned %v, want ErrTooLarge", r.err)
		}
	})
	t.Run("exactly at the cap", func(t *testing.T) {
		ws, cli := pipeServer(t)
		ws.maxMsg = 100
		res := readAsync(ws, 1)
		mustWrite(t, cli, clientFrame(false, opBinary, make([]byte, 60)))
		mustWrite(t, cli, clientFrame(true, opContinuation, make([]byte, 40)))
		if r := <-res; r.err != nil || len(r.msg) != 100 {
			t.Fatalf("read %d bytes, %v; want the 100-byte message", len(r.msg), r.err)
		}
	})
}

// Frames RFC 6455 or this protocol forbids are refused with a 1002 close,
// and the read fails with ErrProtocol.
func TestProtocolViolationsRefusedWith1002(t *testing.T) {
	unmasked := clientFrame(true, opBinary, []byte{1})
	unmasked[1] &^= 0x80
	rsv := clientFrame(true, opBinary, []byte{1})
	rsv[0] |= 0x40
	for name, frame := range map[string][]byte{
		"text frame":          clientFrame(true, opText, []byte("hi")),
		"orphan continuation": clientFrame(true, opContinuation, []byte{1}),
		"reserved opcode":     clientFrame(true, 0x3, nil),
		"RSV bit":             rsv,
		"unmasked frame":      unmasked,
	} {
		t.Run(name, func(t *testing.T) {
			ws, cli := pipeServer(t)
			res := readAsync(ws, 1)
			go cli.Write(frame) // the refusal may come before every byte is read
			got := make([]byte, 4)
			if _, err := io.ReadFull(cli, got); err != nil {
				t.Fatal(err)
			}
			if want := []byte{0x80 | opClose, 2, 0x03, 0xEA}; !bytes.Equal(got, want) {
				t.Fatalf("close frame = % x, want % x (1002)", got, want)
			}
			if r := <-res; !errors.Is(r.err, ErrProtocol) {
				t.Fatalf("read returned %v, want ErrProtocol", r.err)
			}
		})
	}
}

// A buffer grown for one large message is not pinned by the connection once
// it goes back to waiting.
func TestLargeMessageBufferDroppedWhenParked(t *testing.T) {
	ws, cli := pipeServer(t)
	res := readAsync(ws, 2)
	big := bytes.Repeat([]byte{0xA5}, 70000)
	mustWrite(t, cli, clientFrame(true, opBinary, big))
	if r := <-res; r.err != nil || !bytes.Equal(r.msg, big) {
		t.Fatalf("large message corrupted (%d bytes, %v)", len(r.msg), r.err)
	} else if r.payloadCap < len(big) {
		t.Fatalf("payload cap %d below the %d-byte message it returned", r.payloadCap, len(big))
	}
	mustWrite(t, cli, clientFrame(true, opBinary, []byte("small")))
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
