package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// rawShareReply builds a ShareReply from explicit fields, bypassing the
// encoder's normalisation, so malformed and edge-case frames can be written
// down directly.
func rawShareReply(probeID uint32, flag byte, loc geom.Point, count uint32, pois []core.POI) []byte {
	buf := appendHeader(nil, TypeShareReply)
	buf = binary.LittleEndian.AppendUint32(buf, probeID)
	buf = append(buf, flag)
	buf = appendPoint(buf, loc)
	buf = binary.LittleEndian.AppendUint32(buf, count)
	return appendNeighbors(buf, pois)
}

// checkForwardable demands, of a frame Decode accepts as a ShareReply, that
// ShareReplyBlock agrees on every field and that the block is what the
// relay's contract says it is: spliced behind a PeerShares header it is byte
// for byte AppendPeerShares of the decoded cache.
func checkForwardable(t *testing.T, frame []byte) {
	t.Helper()
	msg, err := Decode(frame)
	if err != nil || msg.Type != TypeShareReply {
		t.Fatalf("Decode: %v (type %d)", err, msg.Type)
	}
	probeID, n, block, err := ShareReplyBlock(frame)
	if err != nil {
		t.Fatalf("ShareReplyBlock rejected a frame Decode accepts: %v", err)
	}
	if probeID != msg.Share.ProbeID || n != len(msg.Share.Cache.Neighbors) || (n > 0) != msg.Share.Has {
		t.Fatalf("ShareReplyBlock = (%d, %d), Decode = %+v", probeID, n, msg.Share)
	}
	if n == 0 {
		if block != nil {
			t.Fatalf("empty reply returned a %d-byte block", len(block))
		}
		return
	}
	// Twice over, so the splice is checked at a non-zero share index too.
	spliced := AppendPeerSharesHeader(nil, 7, 3, 2)
	spliced = append(append(spliced, block...), block...)
	want := AppendPeerShares(nil, PeerShares{ReqID: 7, PeersInRange: 3,
		Shares: []core.PeerCache{msg.Share.Cache, msg.Share.Cache}})
	if !bytes.Equal(spliced, want) {
		t.Fatalf("header + forwarded blocks differ from AppendPeerShares of the decoded cache (n=%d)", n)
	}
	if len(spliced) != PeerSharesSize([]int{n, n}) {
		t.Fatalf("spliced size %d, want %d", len(spliced), PeerSharesSize([]int{n, n}))
	}
}

func TestShareReplyBlockForwardsExactBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	negZero := math.Copysign(0, -1)
	frames := map[string][]byte{
		"empty":          EncodeShareReply(1, false, core.PeerCache{}),
		"one neighbor":   EncodeShareReply(2, true, samplePC(1, rng)),
		"cache capacity": EncodeShareReply(3, true, samplePC(16, rng)),
		"hundred":        EncodeShareReply(4, true, samplePC(100, rng)),
		"at the cap":     EncodeShareReply(5, true, samplePC(MaxShareNeighbors, rng)),
		// Equal distances in either order are both ascending; the bytes, not a
		// re-sort, decide what the requester sees.
		"ties": rawShareReply(6, 1, geom.Pt(0, 0), 3, []core.POI{
			{ID: 9, Loc: geom.Pt(3, 4)}, {ID: 2, Loc: geom.Pt(-4, 3)}, {ID: 5, Loc: geom.Pt(5, 0)}}),
		"duplicate points": rawShareReply(7, 1, geom.Pt(1, 1), 2, []core.POI{
			{ID: 1, Loc: geom.Pt(2, 2)}, {ID: 1, Loc: geom.Pt(2, 2)}}),
		// Negative zero is a finite coordinate with its own bit pattern; it
		// must reach the requester as sent.
		"negative zero": rawShareReply(8, 1, geom.Pt(negZero, 0), 2, []core.POI{
			{ID: 1, Loc: geom.Pt(0, negZero)}, {ID: 2, Loc: geom.Pt(negZero, negZero)}}),
		"extreme ids": rawShareReply(9, 1, geom.Pt(-1e300, 1e300), 2, []core.POI{
			{ID: math.MinInt64, Loc: geom.Pt(-1e300, 1e300)}, {ID: math.MaxInt64, Loc: geom.Pt(0, 0)}}),
	}
	for name, frame := range frames {
		t.Run(name, func(t *testing.T) { checkForwardable(t, frame) })
	}
	for trial := 0; trial < 200; trial++ {
		checkForwardable(t, EncodeShareReply(rng.Uint32(), true, samplePC(1+rng.Intn(64), rng)))
	}
}

// ShareReplyBlock and Decode must reject exactly the same frames, with the
// same error: every malformed class, written down one by one. The two share
// scanShareReply, and this pins that they keep doing so.
func TestShareReplyBlockRejectsWhatDecodeRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pc := samplePC(4, rng)
	valid := EncodeShareReply(1, true, pc)
	empty := EncodeShareReply(1, false, core.PeerCache{})
	withNeighbor := func(i int, p geom.Point) []byte {
		pois := append([]core.POI(nil), pc.Neighbors...)
		pois[i].Loc = p
		return rawShareReply(1, 1, pc.QueryLoc, uint32(len(pois)), pois)
	}
	reversed := append([]core.POI(nil), pc.Neighbors...)
	reversed[0], reversed[3] = reversed[3], reversed[0]

	cases := map[string][]byte{
		"nil":                      nil,
		"bad magic":                append([]byte("XENN"), valid[4:]...),
		"bad version":              append(append([]byte("SENN"), 9), valid[5:]...),
		"header only":              valid[:headerSize],
		"cut in the probe id":      valid[:headerSize+2],
		"cut before the flag":      valid[:headerSize+4],
		"cut in the location":      valid[:shareReplyBlockOff+9],
		"cut in the count":         valid[:shareReplyBlockOff+pointSize+2],
		"cut mid-neighbor":         valid[:len(valid)-poiSize/2],
		"one neighbor short":       valid[:len(valid)-poiSize],
		"trailing byte":            append(append([]byte(nil), valid...), 0),
		"trailing neighbor":        append(append([]byte(nil), valid...), valid[len(valid)-poiSize:]...),
		"NaN location":             rawShareReply(1, 1, geom.Pt(math.NaN(), 0), 4, pc.Neighbors),
		"Inf location":             rawShareReply(1, 1, geom.Pt(0, math.Inf(-1)), 4, pc.Neighbors),
		"NaN neighbor":             withNeighbor(2, geom.Pt(0, math.NaN())),
		"Inf neighbor":             withNeighbor(0, geom.Pt(math.Inf(1), 0)),
		"unsorted":                 rawShareReply(1, 1, pc.QueryLoc, 4, reversed),
		"flag 2":                   rawShareReply(1, 2, pc.QueryLoc, 4, pc.Neighbors),
		"flag 255":                 rawShareReply(1, 255, pc.QueryLoc, 4, pc.Neighbors),
		"flagged with 0 neighbors": rawShareReply(1, 1, pc.QueryLoc, 0, nil),
		"empty with a location":    rawShareReply(1, 0, geom.Pt(1, 0), 0, nil),
		"empty with a count":       rawShareReply(1, 0, geom.Point{}, 1, nil),
		"empty with neighbors":     rawShareReply(1, 0, geom.Point{}, 0, pc.Neighbors[:1]),
		"empty cut short":          empty[:len(empty)-1],
		"count beyond the cap":     rawShareReply(1, 1, pc.QueryLoc, MaxShareNeighbors+1, nil),
		"count beyond the bytes":   rawShareReply(1, 1, pc.QueryLoc, 5, pc.Neighbors),
	}
	for name, frame := range cases {
		_, decErr := Decode(frame)
		_, _, block, fwdErr := ShareReplyBlock(frame)
		if decErr == nil || fwdErr == nil {
			t.Errorf("%s: accepted (Decode err=%v, ShareReplyBlock err=%v)", name, decErr, fwdErr)
			continue
		}
		if decErr.Error() != fwdErr.Error() {
			t.Errorf("%s: Decode says %q, ShareReplyBlock says %q", name, decErr, fwdErr)
		}
		if block != nil {
			t.Errorf("%s: rejected frame still returned a block", name)
		}
	}
	// Every other message type is Decode's to accept and not a ShareReply.
	for _, frame := range [][]byte{
		EncodePosition(geom.Pt(1, 2)),
		EncodePeerProbe(3),
		EncodePeerShares(PeerShares{ReqID: 1, PeersInRange: 1, Shares: []core.PeerCache{pc}}),
	} {
		if _, _, _, err := ShareReplyBlock(frame); err == nil {
			t.Errorf("ShareReplyBlock accepted a type-%d message", frame[5])
		}
	}
}

// FuzzShareReplyForward holds the forwarding contract on arbitrary bytes:
// ShareReplyBlock accepts exactly the ShareReply frames Decode accepts, and
// a forwarded block spliced behind a PeerShares header decodes to the same
// cache and re-encodes to the spliced bytes.
func FuzzShareReplyForward(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	f.Add(EncodeShareReply(1, false, core.PeerCache{}))
	f.Add(EncodeShareReply(2, true, samplePC(1, rng)))
	f.Add(EncodeShareReply(3, true, samplePC(16, rng)))
	f.Add(rawShareReply(4, 1, geom.Pt(0, 0), 2, []core.POI{{ID: 1, Loc: geom.Pt(3, 4)}, {ID: 2, Loc: geom.Pt(4, 3)}}))
	f.Add(rawShareReply(5, 1, geom.Pt(math.Copysign(0, -1), 0), 1, []core.POI{{ID: 1, Loc: geom.Pt(0, math.Copysign(0, -1))}}))
	f.Add(rawShareReply(6, 1, geom.Pt(0, 0), 2, []core.POI{{ID: 1, Loc: geom.Pt(9, 9)}, {ID: 2, Loc: geom.Pt(1, 1)}}))
	f.Add(rawShareReply(7, 2, geom.Pt(0, 0), 0, nil))
	f.Add(rawShareReply(8, 0, geom.Pt(1, 0), 0, nil))
	f.Add(EncodeShareReply(9, true, samplePC(3, rng))[:40])
	f.Add(EncodePeerProbe(10))
	f.Add([]byte("SENN\x01\x0a"))
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, decErr := Decode(data)
		probeID, n, block, fwdErr := ShareReplyBlock(data)
		decodes := decErr == nil && msg.Type == TypeShareReply
		if decodes != (fwdErr == nil) {
			t.Fatalf("Decode err=%v type=%d, ShareReplyBlock err=%v", decErr, msg.Type, fwdErr)
		}
		if fwdErr != nil {
			return
		}
		if probeID != msg.Share.ProbeID || n != len(msg.Share.Cache.Neighbors) {
			t.Fatalf("ShareReplyBlock = (%d, %d), Decode = %+v", probeID, n, msg.Share)
		}
		if n == 0 {
			if block != nil {
				t.Fatal("empty reply returned a block")
			}
			return
		}
		spliced := append(AppendPeerSharesHeader(nil, probeID, 1, 1), block...)
		got, err := Decode(spliced)
		if err != nil {
			t.Fatalf("spliced frame rejected: %v", err)
		}
		if !bytes.Equal(EncodePeerShares(got.Shares), spliced) {
			t.Fatal("spliced frame does not re-encode to itself")
		}
		if !bytes.Equal(EncodeShareReply(probeID, true, got.Shares.Shares[0]), data) {
			t.Fatal("the forwarded share is not the share that was sent")
		}
	})
}
