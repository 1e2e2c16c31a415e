package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

func TestPeerRequestRoundTrip(t *testing.T) {
	for _, r := range []PeerRequest{
		{ReqID: 1, Loc: geom.Pt(10, 20), Radius: 500},
		{ReqID: ^uint32(0), Loc: geom.Pt(-1e6, 1e6), Radius: 0},
		{ReqID: 0, Loc: geom.Pt(0, 0), Radius: 1e9},
	} {
		buf := AppendPeerRequest(nil, r)
		if len(buf) != PeerRequestSize {
			t.Fatalf("size %d, want %d", len(buf), PeerRequestSize)
		}
		msg, err := Decode(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if msg.Type != TypePeerRequest || msg.PeerReq != r {
			t.Fatalf("round trip changed request: %+v != %+v", msg.PeerReq, r)
		}
		if !bytes.Equal(AppendPeerRequest(nil, msg.PeerReq), buf) {
			t.Fatal("re-encode not canonical")
		}
	}
}

func TestPeerRequestRejectsBadRadius(t *testing.T) {
	for _, radius := range []float64{-1, math.Inf(1), math.NaN(), math.Copysign(0, -1)} {
		buf := appendHeader(nil, TypePeerRequest)
		buf = binary.LittleEndian.AppendUint32(buf, 1)
		buf = appendPoint(buf, geom.Pt(1, 2))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(radius))
		if _, err := Decode(buf); err == nil {
			t.Fatalf("radius %g accepted", radius)
		}
	}
}

func TestPeerProbeRoundTrip(t *testing.T) {
	for _, id := range []uint32{0, 7, ^uint32(0)} {
		buf := AppendPeerProbe(nil, id)
		if len(buf) != PeerProbeSize {
			t.Fatalf("size %d, want %d", len(buf), PeerProbeSize)
		}
		msg, err := Decode(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if msg.Type != TypePeerProbe || msg.ProbeID != id {
			t.Fatalf("round trip changed probe id: %d != %d", msg.ProbeID, id)
		}
	}
}

func TestShareReplyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 10, 100} {
		pc := samplePC(n, rng)
		buf := AppendShareReply(nil, 42, true, pc)
		if len(buf) != ShareReplySize(n) {
			t.Fatalf("n=%d: size %d, want %d", n, len(buf), ShareReplySize(n))
		}
		msg, err := Decode(buf)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if msg.Type != TypeShareReply || msg.Share.ProbeID != 42 || !msg.Share.Has {
			t.Fatalf("n=%d: got %+v", n, msg.Share)
		}
		if len(msg.Share.Cache.Neighbors) != n || !msg.Share.Cache.QueryLoc.Eq(pc.QueryLoc) {
			t.Fatalf("n=%d: cache mismatch", n)
		}
		for i := range pc.Neighbors {
			if msg.Share.Cache.Neighbors[i] != pc.Neighbors[i] {
				t.Fatalf("n=%d: neighbor %d mismatch", n, i)
			}
		}
		if !bytes.Equal(AppendShareReply(nil, 42, true, msg.Share.Cache), buf) {
			t.Fatalf("n=%d: re-encode not canonical", n)
		}
	}
}

func TestShareReplyEmpty(t *testing.T) {
	// An empty reply is canonical regardless of the cache handed in.
	rng := rand.New(rand.NewSource(8))
	buf := AppendShareReply(nil, 9, false, samplePC(3, rng))
	if len(buf) != ShareReplySize(0) {
		t.Fatalf("size %d, want %d", len(buf), ShareReplySize(0))
	}
	msg, err := Decode(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if msg.Share.ProbeID != 9 || msg.Share.Has || len(msg.Share.Cache.Neighbors) != 0 {
		t.Fatalf("got %+v", msg.Share)
	}
	if !bytes.Equal(AppendShareReply(nil, 9, false, core.PeerCache{}), buf) {
		t.Fatal("re-encode not canonical")
	}
	// A cache with zero neighbors encodes as the canonical empty reply even
	// when flagged has=true.
	if !bytes.Equal(AppendShareReply(nil, 9, true, core.PeerCache{QueryLoc: geom.Pt(1, 2)}), buf) {
		t.Fatal("empty cache with has=true not normalized")
	}
}

func TestShareReplyRejectsMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pc := samplePC(3, rng)
	valid := AppendShareReply(nil, 1, true, pc)

	// Unsorted neighbors.
	unsorted := append([]byte(nil), valid...)
	// Swap the first and last neighbor blocks (distinct distances with
	// probability 1 under the random sample).
	first := headerSize + 4 + 1 + pointSize + 4
	last := first + 2*poiSize
	tmp := make([]byte, poiSize)
	copy(tmp, unsorted[first:first+poiSize])
	copy(unsorted[first:first+poiSize], unsorted[last:last+poiSize])
	copy(unsorted[last:last+poiSize], tmp)
	if _, err := Decode(unsorted); !errors.Is(err, ErrUnsorted) {
		t.Fatalf("unsorted share reply: err = %v, want ErrUnsorted", err)
	}

	// Non-canonical empty reply: flag 0 but stale location bits.
	dirty := AppendShareReply(nil, 1, false, core.PeerCache{})
	dirty[headerSize+5] = 0xFF
	if _, err := Decode(dirty); !errors.Is(err, ErrBadValue) {
		t.Fatalf("dirty empty reply: err = %v, want ErrBadValue", err)
	}

	// has=1 with zero neighbors.
	zero := appendHeader(nil, TypeShareReply)
	zero = binary.LittleEndian.AppendUint32(zero, 1)
	zero = append(zero, 1)
	zero = appendPoint(zero, geom.Pt(1, 2))
	zero = binary.LittleEndian.AppendUint32(zero, 0)
	if _, err := Decode(zero); !errors.Is(err, ErrBadValue) {
		t.Fatalf("has=1 n=0 reply: err = %v, want ErrBadValue", err)
	}

	// Bad flag byte.
	badFlag := append([]byte(nil), valid...)
	badFlag[headerSize+4] = 2
	if _, err := Decode(badFlag); !errors.Is(err, ErrBadValue) {
		t.Fatalf("flag=2 reply: err = %v, want ErrBadValue", err)
	}

	// Oversized neighbor count (beyond MaxShareNeighbors) with a length
	// that matches, so only the cap can reject it. Build the count field
	// oversized but truncate the payload: the cap check runs first.
	big := appendHeader(nil, TypeShareReply)
	big = binary.LittleEndian.AppendUint32(big, 1)
	big = append(big, 1)
	big = appendPoint(big, geom.Pt(1, 2))
	big = binary.LittleEndian.AppendUint32(big, uint32(MaxShareNeighbors+1))
	if _, err := Decode(big); !errors.Is(err, ErrBadValue) {
		t.Fatalf("oversized share: err = %v, want ErrBadValue", err)
	}
}

func TestPeerSharesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, counts := range [][]int{nil, {3}, {1, 2, 5}, {4, 4, 4, 4}} {
		shares := make([]core.PeerCache, len(counts))
		for i, n := range counts {
			shares[i] = samplePC(n, rng)
		}
		ps := PeerShares{ReqID: 77, PeersInRange: len(counts) + 2, Shares: shares}
		buf := AppendPeerShares(nil, ps)
		if len(buf) != PeerSharesSize(counts) {
			t.Fatalf("counts %v: size %d, want %d", counts, len(buf), PeerSharesSize(counts))
		}
		msg, err := Decode(buf)
		if err != nil {
			t.Fatalf("counts %v: decode: %v", counts, err)
		}
		if msg.Type != TypePeerShares || msg.Shares.ReqID != 77 ||
			msg.Shares.PeersInRange != len(counts)+2 || len(msg.Shares.Shares) != len(counts) {
			t.Fatalf("counts %v: got %+v", counts, msg.Shares)
		}
		for i := range shares {
			got := msg.Shares.Shares[i]
			if !got.QueryLoc.Eq(shares[i].QueryLoc) || len(got.Neighbors) != len(shares[i].Neighbors) {
				t.Fatalf("counts %v: share %d mismatch", counts, i)
			}
			for j := range shares[i].Neighbors {
				if got.Neighbors[j] != shares[i].Neighbors[j] {
					t.Fatalf("counts %v: share %d neighbor %d mismatch", counts, i, j)
				}
			}
		}
		if !bytes.Equal(AppendPeerShares(nil, msg.Shares), buf) {
			t.Fatalf("counts %v: re-encode not canonical", counts)
		}
	}
}

func TestPeerSharesRejectsMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ps := PeerShares{ReqID: 1, PeersInRange: 1, Shares: []core.PeerCache{samplePC(2, rng)}}
	valid := AppendPeerShares(nil, ps)

	// Share count larger than the bytes can hold.
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[headerSize+8:], 1<<30)
	if _, err := Decode(huge); !errors.Is(err, ErrTruncated) {
		t.Fatalf("huge count: err = %v, want ErrTruncated", err)
	}

	// Trailing garbage after the last share.
	trailing := append(append([]byte(nil), valid...), 0)
	if _, err := Decode(trailing); !errors.Is(err, ErrTruncated) {
		t.Fatalf("trailing byte: err = %v, want ErrTruncated", err)
	}

	// Empty share inside the aggregate.
	empty := appendHeader(nil, TypePeerShares)
	empty = binary.LittleEndian.AppendUint32(empty, 1)
	empty = binary.LittleEndian.AppendUint32(empty, 1)
	empty = binary.LittleEndian.AppendUint32(empty, 1)
	empty = appendPoint(empty, geom.Pt(1, 2))
	empty = binary.LittleEndian.AppendUint32(empty, 0)
	if _, err := Decode(empty); !errors.Is(err, ErrBadValue) {
		t.Fatalf("empty inner share: err = %v, want ErrBadValue", err)
	}
}

// The append-style encoders write the same bytes into a reused buffer as
// into a fresh one, and appended after other bytes they leave those intact.
func TestAppendEncodersReuseBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pc := samplePC(5, rng)
	ans := sampleAnswer(3, 4, rng)
	ps := PeerShares{ReqID: 1, PeersInRange: 3, Shares: []core.PeerCache{pc}}
	encoders := map[string]func([]byte) []byte{
		"Answer":     func(b []byte) []byte { return AppendAnswer(b, ans) },
		"Error":      func(b []byte) []byte { return AppendError(b, ErrorMsg{ReqID: 9, Code: ErrCodeTooLarge}) },
		"ShareReply": func(b []byte) []byte { return AppendShareReply(b, 2, true, pc) },
		"PeerShares": func(b []byte) []byte { return AppendPeerShares(b, ps) },
		"PeerProbe":  func(b []byte) []byte { return AppendPeerProbe(b, 99) },
		"Position":   func(b []byte) []byte { return AppendPosition(b, geom.Pt(3, 4)) },
	}
	buf := make([]byte, 0, 64)
	prefix := []byte("prefix")
	for name, enc := range encoders {
		fresh := enc(nil)
		if buf = enc(buf[:0]); !bytes.Equal(buf, fresh) {
			t.Errorf("Append%s into a reused buffer differs from a fresh encode", name)
		}
		if got := enc(bytes.Clone(prefix)); !bytes.Equal(got, append(bytes.Clone(prefix), fresh...)) {
			t.Errorf("Append%s after a prefix: %x", name, got)
		}
	}
}

// PeekType must agree with Decode on both the type of every valid message
// and the rejection of every broken header.
func TestPeekType(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, buf := range [][]byte{
		AppendAnswer(nil, sampleAnswer(1, 0, rng)),
		AppendPosition(nil, geom.Pt(1, 2)),
		AppendPeerProbe(nil, 7),
		AppendPeerShares(nil, PeerShares{ReqID: 1, Shares: []core.PeerCache{samplePC(2, rng)}}),
	} {
		typ, err := PeekType(buf)
		if err != nil {
			t.Fatalf("PeekType: %v", err)
		}
		msg, err := Decode(buf)
		if err != nil || msg.Type != typ {
			t.Fatalf("PeekType %d disagrees with Decode %d (%v)", typ, msg.Type, err)
		}
	}
	for _, bad := range [][]byte{nil, []byte("SEN"), []byte("XENN\x01\x03"), []byte("SENN\x09\x03")} {
		if _, err := PeekType(bad); err == nil {
			t.Fatalf("PeekType accepted %q", bad)
		}
	}
}

// DecodePeerSharesInto must be observably identical to the generic Decode —
// same accepted messages, same decoded values, same rejections — while
// reusing one scratch across calls. This pins the scratch path to the
// canonical validation the fuzz targets exercise through Decode.
func TestDecodePeerSharesIntoMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var sc SharesScratch
	// Several decode rounds through the SAME scratch, with shrinking and
	// growing share counts, so reuse (not just first use) is what's tested.
	for round, counts := range [][]int{{3}, {1, 2, 5}, nil, {4, 4, 4, 4}, {2}} {
		shares := make([]core.PeerCache, len(counts))
		for i, n := range counts {
			shares[i] = samplePC(n, rng)
		}
		ps := PeerShares{ReqID: uint32(round), PeersInRange: len(counts) + 1, Shares: shares}
		buf := AppendPeerShares(nil, ps)

		want, err := Decode(buf)
		if err != nil {
			t.Fatalf("round %d: Decode: %v", round, err)
		}
		got, err := DecodePeerSharesInto(buf, &sc)
		if err != nil {
			t.Fatalf("round %d: DecodePeerSharesInto: %v", round, err)
		}
		if got.ReqID != want.Shares.ReqID || got.PeersInRange != want.Shares.PeersInRange ||
			len(got.Shares) != len(want.Shares.Shares) {
			t.Fatalf("round %d: got %+v, want %+v", round, got, want.Shares)
		}
		for i := range got.Shares {
			w := want.Shares.Shares[i]
			g := got.Shares[i]
			if !g.QueryLoc.Eq(w.QueryLoc) || len(g.Neighbors) != len(w.Neighbors) {
				t.Fatalf("round %d: share %d mismatch", round, i)
			}
			for j := range w.Neighbors {
				if g.Neighbors[j] != w.Neighbors[j] {
					t.Fatalf("round %d: share %d neighbor %d mismatch", round, i, j)
				}
			}
		}
		// The decoded result must re-encode to the input bytes, same as the
		// canonical-encoding invariant Decode carries.
		if !bytes.Equal(AppendPeerShares(nil, got), buf) {
			t.Fatalf("round %d: scratch decode not canonical", round)
		}
	}

	// Rejections must match Decode's rejections exactly.
	valid := AppendPeerShares(nil, PeerShares{ReqID: 1, PeersInRange: 1, Shares: []core.PeerCache{samplePC(2, rng)}})
	for name, corrupt := range map[string][]byte{
		"wrong type":     AppendPosition(nil, geom.Pt(1, 2)),
		"short":          valid[:headerSize+4],
		"trailing":       append(append([]byte(nil), valid...), 0),
		"bad magic":      append([]byte("XENN"), valid[4:]...),
		"unsorted share": nil, // built below
	} {
		if name == "unsorted share" {
			corrupt = appendHeader(nil, TypePeerShares)
			corrupt = binary.LittleEndian.AppendUint32(corrupt, 1)
			corrupt = binary.LittleEndian.AppendUint32(corrupt, 1)
			corrupt = binary.LittleEndian.AppendUint32(corrupt, 1)
			corrupt = appendPoint(corrupt, geom.Pt(0, 0))
			corrupt = binary.LittleEndian.AppendUint32(corrupt, 2)
			corrupt = binary.LittleEndian.AppendUint64(corrupt, 1)
			corrupt = appendPoint(corrupt, geom.Pt(5, 0))
			corrupt = binary.LittleEndian.AppendUint64(corrupt, 2)
			corrupt = appendPoint(corrupt, geom.Pt(1, 0))
		}
		_, decErr := Decode(corrupt)
		_, scErr := DecodePeerSharesInto(corrupt, &sc)
		wrongType := false
		if _, err := PeekType(corrupt); err == nil {
			wrongType = corrupt[5] != TypePeerShares
		}
		switch {
		case wrongType:
			if scErr == nil {
				t.Fatalf("%s: scratch decode accepted a non-PeerShares message", name)
			}
		case (decErr == nil) != (scErr == nil):
			t.Fatalf("%s: Decode err=%v, scratch err=%v", name, decErr, scErr)
		}
	}

	// The scratch must still work after error paths.
	if _, err := DecodePeerSharesInto(valid, &sc); err != nil {
		t.Fatalf("scratch poisoned by error path: %v", err)
	}
}
