package client_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
)

// resolveEarlyExit is the resolver as it stood before certifyReceived,
// written out plainly as the oracle: identical to Resolver.Resolve in every
// respect except that kNN_single returns at the k-th certificate, as
// Algorithm 1 is printed — so the staged write holds whatever the first
// sufficient run of peers happened to certify. It allocates freely. This is
// the only place the early exit survives.
func resolveEarlyExit(req client.Request, ps client.PeerSource, srv client.Server) client.Outcome {
	q, k := req.Q, req.K
	var res client.Outcome
	var peers []core.PeerCache
	heapK := k
	if req.Cache != nil {
		if ent, ok := req.Cache.Entry(); ok {
			peers = append(peers, ent)
		}
		heapK = max(k, req.Cache.Capacity())
	}
	if ps != nil {
		peers, res.Msgs, res.Bytes = ps.Gather(q, peers)
	}
	res.PeersUsed = len(peers)

	h := core.NewResultHeap(heapK)
	peers = core.SortPeersByProximity(q, peers)
	solvedSingle := false
	for _, pc := range peers {
		core.VerifySinglePeer(q, pc, h)
		if h.NumCertain() >= k {
			solvedSingle = true
			break // the early exit
		}
	}
	if !solvedSingle && len(peers) > 0 {
		core.VerifyMultiPeer(q, peers, h)
	}
	stage := func(certain []core.Candidate) cache.StagedWrite {
		if len(certain) == 0 {
			return cache.StagedWrite{}
		}
		pois := make([]core.POI, len(certain))
		for i, c := range certain {
			pois[i] = c.POI
		}
		return cache.Stage(q, pois)
	}
	certain := h.CertainEntries()
	switch {
	case len(certain) >= k:
		res.Src = core.SolvedByMultiPeer
		if solvedSingle {
			res.Src = core.SolvedBySinglePeer
		}
		res.Write = stage(certain)
		res.Answer = certain[:k]
		return res
	case req.AcceptUncertain && h.Len() >= k || srv == nil:
		res.Src = core.SolvedUncertain
		res.Write = stage(certain)
		res.Answer = h.Entries()
		if len(res.Answer) > k {
			res.Answer = res.Answer[:k]
		}
		return res
	}
	bounds := h.Bounds()
	bounds.Upper, bounds.HasUpper = h.UpperBoundFor(k)
	fetched, pages, err := srv.KNNInto(q, heapK-len(certain), bounds, nil)
	res.Src, res.Pages, res.Err = core.SolvedByServer, pages, err
	if err != nil {
		return res
	}
	for _, poi := range fetched {
		certain = append(certain, core.Candidate{POI: poi, Dist: q.Dist(poi.Loc), Certain: true})
	}
	res.Write = stage(certain)
	res.Answer = certain[:min(k, len(certain))]
	return res
}

// storedIDs applies a staged write to a fresh cache of the given capacity
// and returns the IDs of the entry it leaves, in stored order.
func storedIDs(w cache.StagedWrite, capacity int) []int64 {
	c := cache.New(capacity)
	w.Apply(c)
	ent, _ := c.Entry()
	ids := make([]int64, len(ent.Neighbors))
	for i, p := range ent.Neighbors {
		ids[i] = p.ID
	}
	return ids
}

// TestResolveKeepsEveryCertifiedNeighbor is the property test of
// certifyReceived. Over seeded random worlds, own-cache entries and peer
// shares, after every trial and against a brute-force scan of the POI set:
//
//   - the query is the early-exit oracle's query — Src, Answer, Msgs, Bytes,
//     Pages and PeersUsed are equal;
//   - the staged write is an exact distance prefix at Q, whatever resolved
//     the query;
//   - when a run of single peers answered, the write is maximal: every POI
//     within the largest Reach(Q) of any received share (own entry included),
//     capped at capacity, in oracle order — never shorter than the oracle's
//     write, and strictly longer often enough to matter;
//   - on every other path the write is the oracle's write.
func TestResolveKeepsEveryCertifiedNeighbor(t *testing.T) {
	rng := rand.New(rand.NewSource(2201))
	r := client.NewResolver()
	srcCounts := map[core.Source]int{}
	grew, neighborsGained := 0, 0
	for trial := 0; trial < 1500; trial++ {
		srv := &bruteServer{pois: randomWorld(rng, 60+rng.Intn(100))}
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		k := 1 + rng.Intn(8)
		capacity := 1 + rng.Intn(20)
		near := func() geom.Point {
			return geom.Pt(q.X+rng.NormFloat64()*90, q.Y+rng.NormFloat64()*90)
		}
		own := cache.New(capacity)
		if rng.Intn(3) > 0 {
			loc := near()
			own.Store(loc, srv.knn(loc, 1+rng.Intn(capacity), nn.Bounds{}))
		}
		peers := make([]core.PeerCache, rng.Intn(7))
		for i := range peers {
			peers[i] = peerAt(srv, near(), 1+rng.Intn(20))
		}
		req := client.Request{
			Q: q, K: k, Cache: own,
			AcceptUncertain: rng.Intn(4) == 0, NeedAnswer: true,
		}

		want := resolveEarlyExit(req, &slicePeers{peers: peers}, srv)
		r.ResetArena()
		got := r.Resolve(req, &slicePeers{peers: peers}, srv)
		srcCounts[got.Src]++

		if got.Src != want.Src || got.Msgs != want.Msgs || got.Bytes != want.Bytes ||
			got.Pages != want.Pages || got.PeersUsed != want.PeersUsed || got.Err != nil {
			t.Fatalf("trial %d: outcome %+v, early-exit oracle %+v", trial, got, want)
		}
		if len(got.Answer) != len(want.Answer) {
			t.Fatalf("trial %d (%v): %d answers, oracle %d", trial, got.Src, len(got.Answer), len(want.Answer))
		}
		for i, c := range got.Answer {
			if c != want.Answer[i] {
				t.Fatalf("trial %d (%v): answer %d = %+v, oracle %+v", trial, got.Src, i, c, want.Answer[i])
			}
		}

		// Brute force: every POI by distance to Q.
		truth := srv.knn(q, len(srv.pois), nn.Bounds{})
		gotIDs, wantIDs := storedIDs(got.Write, capacity), storedIDs(want.Write, capacity)
		for i, id := range gotIDs {
			if id != truth[i].ID {
				t.Fatalf("trial %d (%v): stored neighbor %d is POI %d, the %d-th nearest is POI %d: not an exact prefix",
					trial, got.Src, i, id, i+1, truth[i].ID)
			}
		}
		if got.Src != core.SolvedBySinglePeer {
			if len(gotIDs) != len(wantIDs) {
				t.Fatalf("trial %d (%v): stored %d neighbors, oracle %d — only the single-peer path may differ",
					trial, got.Src, len(gotIDs), len(wantIDs))
			}
			continue
		}
		reach := math.Inf(-1)
		if ent, ok := own.Entry(); ok {
			reach = ent.Reach(q)
		}
		for _, pc := range peers {
			reach = math.Max(reach, pc.Reach(q))
		}
		licensed := sort.Search(len(truth), func(i int) bool { return q.Dist(truth[i].Loc) > reach+geom.Eps })
		if n := min(licensed, capacity); len(gotIDs) != n {
			t.Fatalf("trial %d: stored %d neighbors; the received shares certify %d within reach %.3f, capacity %d, so %d",
				trial, len(gotIDs), licensed, reach, capacity, n)
		}
		if len(gotIDs) < len(wantIDs) {
			t.Fatalf("trial %d: stored %d neighbors, fewer than the early exit's %d", trial, len(gotIDs), len(wantIDs))
		}
		if len(gotIDs) > len(wantIDs) {
			grew++
			neighborsGained += len(gotIDs) - len(wantIDs)
		}
	}
	for _, src := range []core.Source{
		core.SolvedBySinglePeer, core.SolvedByMultiPeer,
		core.SolvedUncertain, core.SolvedByServer,
	} {
		if srcCounts[src] < 20 {
			t.Errorf("only %d trials resolved via %v; fixture too weak", srcCounts[src], src)
		}
	}
	t.Logf("sources %v; %d of %d single-peer writes grew past the early exit's, by %d neighbors in all",
		srcCounts, grew, srcCounts[core.SolvedBySinglePeer], neighborsGained)
	if grew < 50 {
		t.Errorf("the write outgrew the early exit's in only %d trials; fixture too weak", grew)
	}
}
