package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/geom"
)

func samplePC(n int, rng *rand.Rand) core.PeerCache {
	pois := make([]core.POI, n)
	for i := range pois {
		pois[i] = core.POI{
			ID:  rng.Int63(),
			Loc: geom.Pt(rng.Float64()*1e5-5e4, rng.Float64()*1e5-5e4),
		}
	}
	return core.NewPeerCache(geom.Pt(rng.Float64()*1e4, rng.Float64()*1e4), pois)
}

// The priced air-interface cost is the share block's: a cache share is a
// header and one block, the block the socket messages carry, so every
// figure's comm_bytes_per_query moves with the wire format or not at all.
func TestCacheShareSizeIsOneBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 20} {
		if got, want := CacheShareSize(n), CacheRequestSize+len(appendShare(nil, samplePC(n, rng))); got != want {
			t.Errorf("CacheShareSize(%d) = %d, want header + block = %d", n, got, want)
		}
	}
	// One share at the paper's C_Size of 20.
	if got := CacheShareSize(20); got != 506 {
		t.Errorf("CacheShareSize(20) = %d B, want 506", got)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	valid := AppendAnswer(nil, sampleAnswer(1, 3, rng))
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrTooShort},
		{"short", valid[:4], ErrTooShort},
		{"bad magic", append([]byte("XXXX"), valid[4:]...), ErrBadMagic},
		{"bad version", func() []byte {
			b := bytes.Clone(valid)
			b[4] = 99
			return b
		}(), ErrBadVersion},
		{"bad type", func() []byte {
			b := bytes.Clone(valid)
			b[5] = 77
			return b
		}(), ErrBadType},
		// Type bytes 1 and 2 named the air-interface cache share and
		// request, which no socket carries.
		{"retired type 1", appendShare(appendHeader(nil, 1), samplePC(3, rng)), ErrBadType},
		{"retired type 2", appendHeader(nil, 2), ErrBadType},
		{"truncated payload", valid[:len(valid)-5], ErrTruncated},
		{"extended payload", append(bytes.Clone(valid), 0), ErrTruncated},
		{"count lies", func() []byte {
			b := bytes.Clone(valid)
			b[answerBlockOff+pointSize] = 200 // count field far beyond actual data
			return b
		}(), ErrTruncated},
		{"count beyond the cap", func() []byte {
			b := bytes.Clone(valid)
			binary.LittleEndian.PutUint32(b[answerBlockOff+pointSize:], MaxShareNeighbors+1)
			return b
		}(), ErrBadValue},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tc.buf)
			if !errors.Is(err, tc.want) {
				t.Errorf("Decode = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestDecodeRejectsNonFinite(t *testing.T) {
	pc := core.PeerCache{
		QueryLoc:  geom.Pt(math.NaN(), 0),
		Neighbors: []core.POI{{ID: 1, Loc: geom.Pt(1, 1)}},
	}
	if _, err := Decode(AppendAnswer(nil, Answer{Cache: pc})); !errors.Is(err, ErrBadFloat) {
		t.Errorf("NaN location accepted: %v", err)
	}
	pc2 := core.NewPeerCache(geom.Pt(0, 0), []core.POI{{ID: 1, Loc: geom.Pt(math.Inf(1), 0)}})
	if _, err := Decode(AppendShareReply(nil, 1, true, pc2)); !errors.Is(err, ErrBadFloat) {
		t.Errorf("Inf neighbor accepted: %v", err)
	}
}

// Round-trip property over arbitrary finite caches, through the share block
// every carrier shares.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		pc := samplePC(int(n%64), rng)
		buf := AppendAnswer(nil, Answer{Cache: pc})
		msg, err := Decode(buf)
		if err != nil {
			return false
		}
		if len(msg.Answer.Cache.Neighbors) != len(pc.Neighbors) {
			return false
		}
		if msg.Answer.Cache.Radius() != pc.Radius() {
			return false
		}
		return bytes.Equal(AppendAnswer(nil, msg.Answer), buf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Decode must never panic on arbitrary byte soup.
func TestDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		buf := make([]byte, rng.Intn(200))
		rng.Read(buf)
		if rng.Float64() < 0.5 && len(buf) >= 6 {
			// Often plant a plausible header so the payload parser runs.
			copy(buf[:4], "SENN")
			buf[4] = 1
			buf[5] = byte(1 + rng.Intn(int(TypePeerShares)))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on input %v: %v", buf, r)
				}
			}()
			Decode(buf)
		}()
	}
}

// ---------------------------------------------------------------------------
// Client-server channel messages.

// sampleAnswer builds a valid served answer: neighbors ascending by distance
// (NewPeerCache establishes the order), non-negative page count.
func sampleAnswer(reqID uint32, n int, rng *rand.Rand) Answer {
	return Answer{
		ReqID: reqID,
		Pages: rng.Int63n(1000),
		Cache: samplePC(n, rng),
	}
}

func TestPositionRoundTrip(t *testing.T) {
	p := geom.Pt(123.5, -77.25)
	buf := AppendPosition(nil, p)
	if len(buf) != PositionSize {
		t.Fatalf("size %d, want %d", len(buf), PositionSize)
	}
	msg, err := Decode(buf)
	if err != nil || msg.Type != TypePosition {
		t.Fatalf("decode: %v type %d", err, msg.Type)
	}
	if !msg.Pos.Eq(p) {
		t.Errorf("pos %v != %v", msg.Pos, p)
	}
	if !bytes.Equal(AppendPosition(nil, msg.Pos), buf) {
		t.Error("re-encode differs")
	}
}

func TestQueryRoundTrip(t *testing.T) {
	cases := []Query{
		{ReqID: 1, K: 1, Loc: geom.Pt(10, 20)},
		{ReqID: 7, K: 5, Loc: geom.Pt(-3, 4), HasLower: true, Lower: 12.5},
		{ReqID: 9, K: MaxQueryK, Loc: geom.Pt(0, 0), HasUpper: true, Upper: 99},
		{ReqID: ^uint32(0), K: 64, Loc: geom.Pt(1e6, -1e6),
			HasLower: true, Lower: 3, HasUpper: true, Upper: 30},
	}
	for i, q := range cases {
		buf := AppendQuery(nil, q)
		if len(buf) != QuerySize {
			t.Fatalf("case %d: size %d, want %d", i, len(buf), QuerySize)
		}
		msg, err := Decode(buf)
		if err != nil || msg.Type != TypeQuery {
			t.Fatalf("case %d: decode: %v type %d", i, err, msg.Type)
		}
		if msg.Query != q {
			t.Errorf("case %d: decoded %+v, want %+v", i, msg.Query, q)
		}
		if !bytes.Equal(AppendQuery(nil, msg.Query), buf) {
			t.Errorf("case %d: re-encode differs", i)
		}
	}
}

func TestRangeRoundTrip(t *testing.T) {
	r := RangeQuery{ReqID: 3, Loc: geom.Pt(5, 6), Radius: 250}
	buf := EncodeRange(r)
	if len(buf) != RangeSize {
		t.Fatalf("size %d, want %d", len(buf), RangeSize)
	}
	msg, err := Decode(buf)
	if err != nil || msg.Type != TypeRange {
		t.Fatalf("decode: %v type %d", err, msg.Type)
	}
	if msg.Range != r {
		t.Errorf("decoded %+v, want %+v", msg.Range, r)
	}
	if !bytes.Equal(EncodeRange(msg.Range), buf) {
		t.Error("re-encode differs")
	}
}

func TestAnswerRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 3, 50, 500} {
		a := sampleAnswer(uint32(n)+1, n, rng)
		buf := AppendAnswer(nil, a)
		if len(buf) != AnswerSize(n) {
			t.Fatalf("n=%d: size %d, want %d", n, len(buf), AnswerSize(n))
		}
		msg, err := Decode(buf)
		if err != nil || msg.Type != TypeAnswer {
			t.Fatalf("n=%d: decode: %v type %d", n, err, msg.Type)
		}
		if msg.Answer.ReqID != a.ReqID || msg.Answer.Pages != a.Pages {
			t.Fatalf("n=%d: header mismatch: %+v", n, msg.Answer)
		}
		// The decoder must preserve the server's exact neighbor order (no
		// re-sort): byte-for-byte re-encode equality is the oracle property
		// the serve tests rely on.
		if !bytes.Equal(AppendAnswer(nil, msg.Answer), buf) {
			t.Fatalf("n=%d: re-encode differs", n)
		}
	}
}

func TestErrorRoundTrip(t *testing.T) {
	e := ErrorMsg{ReqID: 42, Code: ErrCodeBadRequest}
	buf := AppendError(nil, e)
	if len(buf) != ErrorSize {
		t.Fatalf("size %d, want %d", len(buf), ErrorSize)
	}
	msg, err := Decode(buf)
	if err != nil || msg.Type != TypeError {
		t.Fatalf("decode: %v type %d", err, msg.Type)
	}
	if msg.Err != e {
		t.Errorf("decoded %+v, want %+v", msg.Err, e)
	}
	if !bytes.Equal(AppendError(nil, msg.Err), buf) {
		t.Error("re-encode differs")
	}
}

func TestDecodeRejectsBadClientServerMessages(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"query k=0", func() []byte {
			b := AppendQuery(nil, Query{ReqID: 1, K: 1, Loc: geom.Pt(1, 1)})
			b[10] = 0 // k field
			return b
		}(), ErrBadValue},
		{"query k over cap", AppendQuery(nil, Query{ReqID: 1, K: MaxQueryK + 1, Loc: geom.Pt(1, 1)}), ErrBadValue},
		{"query unknown flag", func() []byte {
			b := AppendQuery(nil, Query{ReqID: 1, K: 1, Loc: geom.Pt(1, 1)})
			b[30] = 0x80
			return b
		}(), ErrBadValue},
		{"query lower without flag", func() []byte {
			b := AppendQuery(nil, Query{ReqID: 1, K: 1, Loc: geom.Pt(1, 1), HasLower: true, Lower: 5})
			b[30] = 0 // clear flags, leave the bound bits behind
			return b
		}(), ErrBadValue},
		{"query NaN bound", AppendQuery(nil, Query{ReqID: 1, K: 1, Loc: geom.Pt(1, 1),
			HasUpper: true, Upper: math.NaN()}), ErrBadFloat},
		{"query NaN location", AppendQuery(nil, Query{ReqID: 1, K: 1, Loc: geom.Pt(math.NaN(), 0)}), ErrBadFloat},
		{"query truncated", AppendQuery(nil, Query{ReqID: 1, K: 1, Loc: geom.Pt(1, 1)})[:20], ErrTruncated},
		{"position Inf", AppendPosition(nil, geom.Pt(math.Inf(1), 0)), ErrBadFloat},
		{"range negative radius", EncodeRange(RangeQuery{ReqID: 1, Loc: geom.Pt(1, 1), Radius: -5}), ErrBadValue},
		{"range negative zero radius", EncodeRange(RangeQuery{ReqID: 1, Loc: geom.Pt(1, 1),
			Radius: math.Copysign(0, -1)}), ErrBadValue},
		{"range Inf radius", EncodeRange(RangeQuery{ReqID: 1, Loc: geom.Pt(1, 1), Radius: math.Inf(1)}), ErrBadFloat},
		{"answer negative pages", AppendAnswer(nil, Answer{ReqID: 1, Pages: -1, Cache: samplePC(2, rng)}), ErrBadValue},
		{"answer unsorted", AppendAnswer(nil, Answer{ReqID: 1, Cache: core.PeerCache{
			QueryLoc: geom.Pt(0, 0),
			Neighbors: []core.POI{
				{ID: 1, Loc: geom.Pt(9, 0)},
				{ID: 2, Loc: geom.Pt(1, 0)},
			},
		}}), ErrUnsorted},
		{"answer count lies", func() []byte {
			b := AppendAnswer(nil, sampleAnswer(1, 3, rng))
			b[34] = 200
			return b
		}(), ErrTruncated},
		{"answer NaN neighbor", AppendAnswer(nil, Answer{ReqID: 1, Cache: core.PeerCache{
			QueryLoc:  geom.Pt(0, 0),
			Neighbors: []core.POI{{ID: 1, Loc: geom.Pt(math.NaN(), 0)}},
		}}), ErrBadFloat},
		{"error truncated", AppendError(nil, ErrorMsg{ReqID: 1, Code: 2})[:12], ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tc.buf)
			if !errors.Is(err, tc.want) {
				t.Errorf("Decode = %v, want %v", err, tc.want)
			}
		})
	}
}

// An answer with equal-distance neighbors (ties broken by ID on the server)
// must decode in the transmitted order — non-decreasing, not strictly
// increasing.
func TestAnswerKeepsEqualDistanceOrder(t *testing.T) {
	a := Answer{ReqID: 1, Cache: core.PeerCache{
		QueryLoc: geom.Pt(0, 0),
		Neighbors: []core.POI{
			{ID: 3, Loc: geom.Pt(5, 0)},
			{ID: 8, Loc: geom.Pt(0, 5)},
			{ID: 9, Loc: geom.Pt(-5, 0)},
		},
	}}
	msg, err := Decode(AppendAnswer(nil, a))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{3, 8, 9} {
		if msg.Answer.Cache.Neighbors[i].ID != want {
			t.Fatalf("neighbor %d = %d, want %d (tie order not preserved)", i, msg.Answer.Cache.Neighbors[i].ID, want)
		}
	}
}
