package serve

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/wire"
)

// TestProbeBetweenQueriesShipsCurrentEntry pins the cache entry's lifetime
// contract on the networked client: cache.Store overwrites the entry in
// place, so a SENNClient must ship a probed entry before its own next store,
// never retain it across one. Each round a second session requests the
// client's share while the client sits idle between query i and query i+1;
// the probe is serviced inline by whichever wait the client enters next —
// its server fallback's, its own relay exchange's, or a range query's: the
// three share one reply loop (SENNClient.await) — before query i+1's result
// is stored, and the share that reaches the requester must be entry i
// exactly: its query location, its neighbors, not a mix with entry i+1
// (whose length differs round to round). Afterwards the client's cache must
// hold entry i+1, equal to the oracle.
func TestProbeBetweenQueriesShipsCurrentEntry(t *testing.T) {
	for _, tc := range []struct {
		name string
		// sharing: the client opens every query with a relay exchange of its
		// own (no peer is in its range, so the server is still reached), and
		// the queued probe is read while it awaits those PeerShares. Off, the
		// query is a server round trip and the probe is read awaiting the
		// Answer.
		sharing bool
		// rangeFirst: a Range precedes query i+1, and the probe is read while
		// the client awaits the range answer.
		rangeFirst bool
	}{
		{"mid-fallback", false, false},
		{"mid-relay", true, false},
		{"mid-range", false, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			probeShipsCurrentEntry(t, tc.sharing, tc.rangeFirst)
		})
	}
}

func probeShipsCurrentEntry(t *testing.T, sharing, rangeFirst bool) {
	// An hour: no relay may complete by timeout and hide a missing reply.
	srv, mod := testServer(t, 4000, Options{RelayTimeout: time.Hour})
	const capacity = 12
	rng := rand.New(rand.NewSource(18))

	aws := openSession(t, srv)
	defer aws.Close()
	a := NewSENNClient(aws, capacity, 500, sharing)
	b := openSession(t, srv)
	defer b.Close()
	syncPosition(t, b, geom.Pt(1, 1))

	query := func(p geom.Point) core.PeerCache {
		t.Helper()
		if err := a.Move(p); err != nil {
			t.Fatal(err)
		}
		// k varies, but policy 2 tops every fetch up to capacity; the store
		// is what the server returned: the capacity nearest POIs of p.
		if _, src, err := a.Query(1 + rng.Intn(capacity)); err != nil || src != core.SolvedByServer {
			t.Fatalf("query at %v: src %v, err %v", p, src, err)
		}
		ent, ok := a.Cache().Entry()
		if !ok {
			t.Fatalf("no cache entry after the query at %v", p)
		}
		want := mod.KNN(p, capacity, nn.Bounds{})
		if ent.QueryLoc != p || len(ent.Neighbors) != len(want) {
			t.Fatalf("entry after the query at %v: %v, want %d neighbors", p, ent, len(want))
		}
		for i := range want {
			if ent.Neighbors[i] != want[i] {
				t.Fatalf("entry at %v: neighbor %d = %v, oracle %v", p, i, ent.Neighbors[i], want[i])
			}
		}
		// A private copy: ent itself aliases the cache and dies at the
		// client's next store.
		return core.PeerCache{QueryLoc: ent.QueryLoc, Neighbors: append([]core.POI(nil), ent.Neighbors...)}
	}
	// Far enough apart that no entry certifies the next query (the server
	// is always reached), near the border on odd rounds so the entry length
	// changes.
	spot := func(i int) geom.Point {
		return geom.Pt(500+float64((i*3571)%9000), 500+float64((i*2287)%9000))
	}

	current := query(spot(0))
	round := 0
	// Fires when the client's own relay exchange completes, before its server
	// fallback begins: the probe must have been answered inside that wait.
	a.SetRelayObserver(func(time.Duration) {
		if st := a.Stats(); st.ProbesAnswered != int64(round) {
			t.Errorf("round %d: %d probes answered when the relay exchange completed, want %d", round, st.ProbesAnswered, round)
		}
	})
	for round = 1; round <= 25; round++ {
		// B asks for the shares around A's streamed position, then round-
		// trips a query on the same connection: frames are served in order
		// and the probe is written to A's socket inside the PeerRequest
		// handler, so once the answer is back the probe is queued at A.
		reqID := uint32(100 + round)
		if err := b.WriteBinary(wire.EncodePeerRequest(wire.PeerRequest{ReqID: reqID, Loc: current.QueryLoc, Radius: 50})); err != nil {
			t.Fatal(err)
		}
		if err := b.WriteBinary(wire.EncodeQuery(wire.Query{ReqID: 0xfff1, K: 1, Loc: geom.Pt(1, 1)})); err != nil {
			t.Fatal(err)
		}
		if msg := readDecoded(t, b); msg.Type != wire.TypeAnswer || msg.Answer.ReqID != 0xfff1 {
			t.Fatalf("round %d: expected the fence answer, got %+v", round, msg)
		}

		if rangeFirst {
			if _, err := a.Range(100); err != nil {
				t.Fatal(err)
			}
			if st := a.Stats(); st.ProbesAnswered != int64(round) {
				t.Fatalf("round %d: %d probes answered after the range query, want %d", round, st.ProbesAnswered, round)
			}
		}
		next := query(spot(round)) // services the probe if it is still queued, then overwrites the entry

		msg := readDecoded(t, b)
		if msg.Type != wire.TypePeerShares || msg.Shares.ReqID != reqID || len(msg.Shares.Shares) != 1 {
			t.Fatalf("round %d: relay delivered %+v, want one share for request %d", round, msg, reqID)
		}
		got := msg.Shares.Shares[0]
		if got.QueryLoc != current.QueryLoc || len(got.Neighbors) != len(current.Neighbors) {
			t.Fatalf("round %d: shipped %v, entry at probe time was %v", round, got, current)
		}
		for i := range got.Neighbors {
			if got.Neighbors[i] != current.Neighbors[i] {
				t.Fatalf("round %d: shipped neighbor %d = %v, entry at probe time had %v (next entry has %v)",
					round, i, got.Neighbors[i], current.Neighbors[i], next.Neighbors)
			}
		}
		current = next
	}
	if st := a.Stats(); st.ProbesAnswered != 25 {
		t.Fatalf("client answered %d probes, want 25", st.ProbesAnswered)
	}
}
