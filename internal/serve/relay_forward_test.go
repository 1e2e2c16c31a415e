package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/wire"
)

// sinkConn is the transport under a requester's WSConn when a test or a
// benchmark drives the relay's reply path directly: it keeps what was written
// (or, with discard set, nothing) and is never read.
type sinkConn struct {
	net.Conn // nil: any method not overridden below is not called on this path
	discard  bool
	out      bytes.Buffer
}

func (c *sinkConn) Write(p []byte) (int, error) {
	if !c.discard {
		c.out.Write(p)
	}
	return len(p), nil
}

// serverFrames splits the unmasked frames a server-side WSConn wrote into
// their payloads.
func serverFrames(t *testing.T, raw []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(raw) > 0 {
		if len(raw) < 2 || raw[0] != 0x80|opBinary || raw[1]&0x80 != 0 {
			t.Fatalf("not a whole unmasked binary frame: % x…", raw[:min(len(raw), 8)])
		}
		n, hdr := int(raw[1]), 2
		switch n {
		case 126:
			n, hdr = int(binary.BigEndian.Uint16(raw[2:])), 4
		case 127:
			n, hdr = int(binary.BigEndian.Uint64(raw[2:])), 10
		}
		out = append(out, raw[hdr:hdr+n])
		raw = raw[hdr+n:]
	}
	return out
}

// forwardFixture is a bare server with one requester connection writing into
// a sink and m probed sessions, ready for registerRelay.
func forwardFixture(m int, discard bool) (*Server, *WSConn, *sinkConn, []*session) {
	s := newBareServer(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1000, 1000)}, 0)
	s.relayTimeout = time.Hour
	sink := &sinkConn{discard: discard}
	targets := make([]*session, m)
	for i := range targets {
		targets[i] = &session{conn: &WSConn{}}
	}
	return s, &WSConn{conn: sink}, sink, targets
}

// tiedCache is a valid cache whose neighbors include exact distance ties
// and negative-zero coordinates, in an order a re-sort could disturb.
func tiedCache(rng *rand.Rand) core.PeerCache {
	negZero := math.Copysign(0, -1)
	d := 1 + rng.Float64()*100
	return core.PeerCache{QueryLoc: geom.Pt(negZero, 0), Neighbors: []core.POI{
		{ID: 9, Loc: geom.Pt(0, negZero)},
		{ID: 3, Loc: geom.Pt(negZero, negZero)},
		{ID: 7, Loc: geom.Pt(d, 0)},
		{ID: 1, Loc: geom.Pt(0, -d)},
		{ID: 5, Loc: geom.Pt(-d, 0)},
	}}
}

// sortedCache is a random valid cache of n neighbors.
func sortedCache(n int, rng *rand.Rand) core.PeerCache {
	pois := make([]core.POI, n)
	for i := range pois {
		pois[i] = core.POI{ID: rng.Int63(), Loc: geom.Pt(rng.Float64()*1000, rng.Float64()*1000)}
	}
	return core.NewPeerCache(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), pois)
}

// The relay's contract after the move to byte forwarding: whatever mix of
// replies arrives — empty, ordinary, tied, small and large — the PeerShares
// frame the requester receives is byte for byte what encoding the decoded
// replies would have produced, shares in arrival order. Every share the codec
// accepts is forwarded: none is larger than an answer may be.
func TestRelayForwardsExactBytesInArrivalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(12)
		s, req, sink, targets := forwardFixture(m, false)
		reqID := rng.Uint32()
		probeID := s.registerRelay(req, reqID, targets)

		want := wire.PeerShares{ReqID: reqID, PeersInRange: m}
		for _, i := range rng.Perm(m) { // arrival order, not target order
			var frame []byte
			switch kind := rng.Intn(10); {
			case kind == 0:
				frame = wire.AppendShareReply(nil, probeID, false, core.PeerCache{})
			case kind == 1:
				frame = wire.AppendShareReply(nil, probeID, true, tiedCache(rng))
			case kind == 2:
				frame = wire.AppendShareReply(nil, probeID, true, sortedCache(65+rng.Intn(40), rng))
			case kind == 3:
				frame = wire.AppendShareReply(nil, probeID, true, sortedCache(64, rng))
			default:
				frame = wire.AppendShareReply(nil, probeID, true, sortedCache(1+rng.Intn(24), rng))
			}
			msg, err := wire.Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			if msg.Share.Has {
				want.Shares = append(want.Shares, msg.Share.Cache)
			}
			if sink.out.Len() != 0 {
				t.Fatalf("trial %d: delivered before the last reply", trial)
			}
			if err := s.handleShareReply(targets[i], frame); err != nil {
				t.Fatalf("trial %d: valid reply refused: %v", trial, err)
			}
		}
		frames := serverFrames(t, sink.out.Bytes())
		if len(frames) != 1 {
			t.Fatalf("trial %d: %d frames delivered, want 1", trial, len(frames))
		}
		if !bytes.Equal(frames[0], wire.AppendPeerShares(nil, want)) {
			t.Fatalf("trial %d: delivered PeerShares differs from the encoding of the decoded replies (%d peers, %d shares)",
				trial, m, len(want.Shares))
		}
		if got := s.stat.relayShares.Load(); got != int64(len(want.Shares)) {
			t.Fatalf("trial %d: relay_shares_forwarded = %d, want %d", trial, got, len(want.Shares))
		}
		if n := pendingRelays(s); n != 0 {
			t.Fatalf("trial %d: %d relays pending after delivery", trial, n)
		}
		// A duplicate after the fact is a late reply: counted, not forwarded.
		if err := s.handleShareReply(targets[0], wire.AppendShareReply(nil, probeID, false, core.PeerCache{})); err != nil {
			t.Fatal(err)
		}
		if s.stat.relayUnknown.Load() != 1 || len(serverFrames(t, sink.out.Bytes())) != 1 {
			t.Fatalf("trial %d: late reply not dropped", trial)
		}
	}
}

// The codec's largest share goes through, and a malformed reply is the
// sender's protocol error: it returns the codec's error and leaves the relay
// waiting on that peer.
func TestRelayForwardLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	s, req, sink, targets := forwardFixture(2, false)
	probeID := s.registerRelay(req, 5, targets)
	big := sortedCache(wire.MaxShareNeighbors, rng)

	bad := wire.AppendShareReply(nil, probeID, true, big)
	bad = bad[:len(bad)-1]
	_, wantErr := wire.Decode(bad)
	if err := s.handleShareReply(targets[0], bad); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("truncated reply: err = %v, want Decode's %v", err, wantErr)
	}
	if pendingRelays(s) != 1 || sink.out.Len() != 0 {
		t.Fatal("a malformed reply settled the relay")
	}

	for _, tg := range targets {
		if err := s.handleShareReply(tg, wire.AppendShareReply(nil, probeID, true, big)); err != nil {
			t.Fatal(err)
		}
	}
	frames := serverFrames(t, sink.out.Bytes())
	want := wire.AppendPeerShares(nil, wire.PeerShares{ReqID: 5, PeersInRange: 2, Shares: []core.PeerCache{big, big}})
	if len(frames) != 1 || !bytes.Equal(frames[0], want) {
		t.Fatalf("two %d-neighbor shares not forwarded intact", wire.MaxShareNeighbors)
	}
}

// BenchmarkRelayForward measures the relay's exchange on the daemon:
// registration (pooled state, its timer re-armed), then 32 ShareReply
// frames, each a cache-capacity share, validated and forwarded into one
// PeerShares delivery. With the pooled state warm nothing in it allocates —
// CI gates it at zero.
func BenchmarkRelayForward(b *testing.B) {
	const peers = 32
	b.Run("peers=32", func(b *testing.B) {
		s, req, _, targets := forwardFixture(peers, true)
		rng := rand.New(rand.NewSource(63))
		frames := make([][]byte, peers)
		for i := range frames {
			frames[i] = wire.AppendShareReply(nil, 0, true, sortedCache(16, rng))
		}
		exchange := func() {
			probeID := s.registerRelay(req, 1, targets)
			for i, f := range frames {
				binary.LittleEndian.PutUint32(f[6:], probeID) // the probe id follows the 6-byte header
				if err := s.handleShareReply(targets[i], f); err != nil {
					b.Fatal(err)
				}
			}
		}
		// Warm the pools, the requester's write buffer and the pending map.
		const warm = 32
		for i := 0; i < warm; i++ {
			exchange()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			exchange()
		}
		if got := s.stat.relayShares.Load(); got != int64(peers*(b.N+warm)) {
			b.Fatalf("forwarded %d shares, want %d", got, peers*(b.N+warm))
		}
	})
}
