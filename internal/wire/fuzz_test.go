package wire

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// FuzzDecode drives the decoder with arbitrary bytes; it must never panic
// and must round-trip every message it accepts. The encoding is canonical,
// so acceptance implies byte-identical re-encoding, for every type.
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	// The retired air-interface layouts (type 1, a header and a share block;
	// type 2, a bare header), which Decode refuses as unknown types.
	f.Add(appendShare(appendHeader(nil, 1), samplePC(3, rng)))
	f.Add(appendHeader(nil, 2))
	f.Add(AppendAnswer(nil, sampleAnswer(12, 40, rng)))
	f.Add(AppendPeerShares(nil, PeerShares{ReqID: 13, PeersInRange: 4}))
	f.Add(AppendPosition(nil, geom.Pt(12.5, -7.75)))
	f.Add(AppendQuery(nil, Query{ReqID: 1, K: 5, Loc: geom.Pt(100, 200)}))
	f.Add(AppendQuery(nil, Query{ReqID: 2, K: 1, Loc: geom.Pt(-1, 1),
		HasLower: true, Lower: 10, HasUpper: true, Upper: 90}))
	f.Add(EncodeRange(RangeQuery{ReqID: 3, Loc: geom.Pt(0, 0), Radius: 500}))
	f.Add(AppendAnswer(nil, sampleAnswer(4, 0, rng)))
	f.Add(AppendAnswer(nil, sampleAnswer(5, 7, rng)))
	f.Add(AppendError(nil, ErrorMsg{ReqID: 6, Code: ErrCodeBadRequest}))
	f.Add(AppendPeerRequest(nil, PeerRequest{ReqID: 7, Loc: geom.Pt(5, 6), Radius: 400}))
	f.Add(AppendPeerProbe(nil, 8))
	f.Add(AppendShareReply(nil, 9, false, samplePC(0, rng)))
	f.Add(AppendShareReply(nil, 10, true, samplePC(4, rng)))
	f.Add(AppendPeerShares(nil, PeerShares{ReqID: 11, PeersInRange: 2,
		Shares: []core.PeerCache{samplePC(2, rng), samplePC(3, rng)}}))
	f.Add([]byte("SENN"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data)
		if err != nil {
			return
		}
		var re []byte
		switch msg.Type {
		case TypePosition:
			re = AppendPosition(nil, msg.Pos)
		case TypeQuery:
			re = AppendQuery(nil, msg.Query)
		case TypeRange:
			re = EncodeRange(msg.Range)
		case TypeAnswer:
			re = AppendAnswer(nil, msg.Answer)
		case TypeError:
			re = AppendError(nil, msg.Err)
		case TypePeerRequest:
			re = AppendPeerRequest(nil, msg.PeerReq)
		case TypePeerProbe:
			re = AppendPeerProbe(nil, msg.ProbeID)
		case TypeShareReply:
			re = AppendShareReply(nil, msg.Share.ProbeID, msg.Share.Has, msg.Share.Cache)
		case TypePeerShares:
			re = AppendPeerShares(nil, msg.Shares)
		default:
			t.Fatalf("decoder accepted unknown type %d", msg.Type)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("type %d: accepted message is not canonical: % x != % x", msg.Type, re, data)
		}
	})
}

// FuzzQueryRoundTrip exercises the Query codec from the field side: every
// well-formed Query must survive encode/decode unchanged.
func FuzzQueryRoundTrip(f *testing.F) {
	f.Add(uint32(1), uint32(5), 100.0, 200.0, false, 0.0, false, 0.0)
	f.Add(uint32(9), uint32(1), -1e6, 1e6, true, 25.0, true, 250.0)
	f.Add(^uint32(0), uint32(MaxQueryK), 0.0, 0.0, true, 0.0, false, 0.0)
	f.Fuzz(func(t *testing.T, reqID, k uint32, x, y float64, hasLo bool, lo float64, hasHi bool, hi float64) {
		// Constrain the inputs to the codec's declared domain; everything
		// else is the malformed-input fuzzer's job.
		if k < 1 || k > MaxQueryK {
			k = 1 + k%MaxQueryK
		}
		if !finite(geom.Pt(x, y)) {
			return
		}
		if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
			return
		}
		q := Query{ReqID: reqID, K: int(k), Loc: geom.Pt(x, y)}
		if hasLo {
			q.HasLower, q.Lower = true, lo
		}
		if hasHi {
			q.HasUpper, q.Upper = true, hi
		}
		msg, err := Decode(AppendQuery(nil, q))
		if err != nil {
			t.Fatalf("well-formed query rejected: %v (%+v)", err, q)
		}
		if msg.Query != q {
			t.Fatalf("round trip changed query: %+v != %+v", msg.Query, q)
		}
	})
}

// FuzzAnswerRoundTrip builds valid answers from fuzzed seeds and checks the
// decoder preserves them exactly: count, neighbor order (including distance
// ties), page cost, and bytes.
func FuzzAnswerRoundTrip(f *testing.F) {
	f.Add(uint32(1), int64(17), int64(42), uint8(0))
	f.Add(uint32(2), int64(0), int64(7), uint8(3))
	f.Add(uint32(3), int64(9999), int64(1), uint8(64))
	f.Fuzz(func(t *testing.T, reqID uint32, pages, seed int64, n uint8) {
		if pages < 0 {
			pages = -pages
		}
		rng := rand.New(rand.NewSource(seed))
		a := Answer{ReqID: reqID, Pages: pages, Cache: samplePC(int(n)%128, rng)}
		buf := AppendAnswer(nil, a)
		msg, err := Decode(buf)
		if err != nil {
			t.Fatalf("well-formed answer rejected: %v", err)
		}
		if msg.Answer.ReqID != a.ReqID || msg.Answer.Pages != a.Pages {
			t.Fatalf("round trip changed answer header")
		}
		if len(msg.Answer.Cache.Neighbors) != len(a.Cache.Neighbors) {
			t.Fatalf("round trip changed neighbor count")
		}
		for i := range a.Cache.Neighbors {
			if msg.Answer.Cache.Neighbors[i] != a.Cache.Neighbors[i] {
				t.Fatalf("round trip changed neighbor %d", i)
			}
		}
		if !bytes.Equal(AppendAnswer(nil, msg.Answer), buf) {
			t.Fatalf("re-encode differs")
		}
	})
}
