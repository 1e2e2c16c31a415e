package client_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/geom/geomtest"
	"repro/internal/nn"
)

// resolveEarlyExit is the resolver as Algorithm 1 is printed, written out
// plainly as the oracle: identical to Resolver.Resolve in every respect except
// that kNN_single visits the peers in Heuristic 3.3 order and returns at the
// k-th certificate — so the staged write holds whatever the first sufficient
// run of peers happened to certify. It allocates freely. This is the only
// place the early exit survives.
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
	for _, pc := range peers {
		if !pc.IsEmpty() {
			res.PeersUsed++
		}
	}

	h := core.NewResultHeap(heapK)
	sort.SliceStable(peers, func(i, j int) bool {
		return q.Dist2(peers[i].QueryLoc) < q.Dist2(peers[j].QueryLoc)
	})
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

// licensedPrefix is what the received shares license at q, worked out the slow
// way and sharing nothing with the resolver's covered-radius kernel: truth is
// every POI by distance to q, and a POI is licensed when the disc around q
// through it lies inside the merged certain region R_c — Lemma 3.8 decided per
// POI by the exact arc-arrangement predicate (DESIGN §4 D1). It returns how
// many leading POIs of truth are licensed by R_c, and how many by the largest
// single Reach (Lemma 3.2) alone.
func licensedPrefix(q geom.Point, shares []core.PeerCache, truth []core.POI) (merged, single int) {
	region := geom.NewRegion()
	reach := math.Inf(-1)
	for _, pc := range shares {
		if !pc.IsEmpty() {
			region.Add(pc.CertainCircle())
			reach = math.Max(reach, pc.Reach(q))
		}
	}
	merged = sort.Search(len(truth), func(i int) bool {
		return !geomtest.CoversCircle(region, geom.NewCircle(q, q.Dist(truth[i].Loc)))
	})
	single = sort.Search(len(truth), func(i int) bool { return q.Dist(truth[i].Loc) > reach+geom.Eps })
	return merged, single
}

// checkCertifiedWrite resolves req both ways and holds the resolver to the
// contract of DESIGN §4 D8:
//
//   - the query is the early-exit oracle's query — Src, Answer, Msgs, Bytes,
//     Pages and PeersUsed are equal;
//   - the staged write is an exact distance prefix at Q (the shares are exact,
//     so brute force over the POI set is the reference), whatever resolved
//     the query;
//   - when a run of single peers answered, the write is maximal: POI for POI,
//     every received POI inside the merged region's covered disc around Q
//     (own entry included), capped at capacity — never less than the largest
//     single Reach licenses, which is never less than the oracle's write;
//   - on every other path the write is the oracle's write.
//
// It returns the outcome and the stored/oracle/single-reach write lengths.
func checkCertifiedWrite(t *testing.T, label string, r *client.Resolver, req client.Request, peers []core.PeerCache, srv *bruteServer) (got client.Outcome, stored, early, single int) {
	t.Helper()
	q, capacity := req.Q, req.Cache.Capacity()
	want := resolveEarlyExit(req, &slicePeers{peers: peers}, srv)
	r.ResetArena()
	got = r.Resolve(req, &slicePeers{peers: peers}, srv)

	if got.Src != want.Src || got.Msgs != want.Msgs || got.Bytes != want.Bytes ||
		got.Pages != want.Pages || got.PeersUsed != want.PeersUsed || got.Err != nil {
		t.Fatalf("%s: outcome %+v, early-exit oracle %+v", label, got, want)
	}
	if len(got.Answer) != len(want.Answer) {
		t.Fatalf("%s: %v: %d answers, oracle %d", label, got.Src, len(got.Answer), len(want.Answer))
	}
	for i, c := range got.Answer {
		if c != want.Answer[i] {
			t.Fatalf("%s: %v: answer %d = %+v, oracle %+v", label, got.Src, i, c, want.Answer[i])
		}
	}

	// Brute force: every POI by distance to Q.
	truth := srv.knn(q, len(srv.pois), nn.Bounds{})
	gotIDs, wantIDs := storedIDs(got.Write, capacity), storedIDs(want.Write, capacity)
	for i, id := range gotIDs {
		if id != truth[i].ID {
			t.Fatalf("%s: %v: stored neighbor %d is POI %d, the %d-th nearest is POI %d: not an exact prefix", label, got.Src, i, id, i+1, truth[i].ID)
		}
	}
	if got.Src != core.SolvedBySinglePeer {
		if len(gotIDs) != len(wantIDs) {
			t.Fatalf("%s: %v: stored %d neighbors, oracle %d — only the single-peer path may differ", label, got.Src, len(gotIDs), len(wantIDs))
		}
		return got, len(gotIDs), len(wantIDs), len(wantIDs)
	}
	shares := peers
	if ent, ok := req.Cache.Entry(); ok {
		shares = append([]core.PeerCache{ent}, peers...)
	}
	merged, single := licensedPrefix(q, shares, truth)
	if n := min(merged, capacity); len(gotIDs) != n {
		t.Fatalf("%s: stored %d neighbors; the merged certain region licenses %d (the largest single reach %d), capacity %d, so %d", label, len(gotIDs), merged, single, capacity, n)
	}
	single = min(single, capacity)
	if len(gotIDs) < single || single < len(wantIDs) {
		t.Fatalf("%s: stored %d neighbors, the largest single reach licenses %d, the early exit kept %d: not nested", label, len(gotIDs), single, len(wantIDs))
	}
	return got, len(gotIDs), len(wantIDs), single
}

// TestResolveKeepsEveryCertifiedNeighbor is the property test of D8:
// checkCertifiedWrite over seeded random worlds, own-cache
// entries and peer shares. The write must outgrow the early exit's, and the
// merged region must outgrow the largest single reach, often enough to matter.
func TestResolveKeepsEveryCertifiedNeighbor(t *testing.T) {
	rng := rand.New(rand.NewSource(2201))
	r := client.NewResolver()
	srcCounts := map[core.Source]int{}
	grew, neighborsGained, merged, mergedGained := 0, 0, 0, 0
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
		got, stored, early, single := checkCertifiedWrite(t, fmt.Sprintf("trial %d", trial), r, req, peers, srv)
		srcCounts[got.Src]++
		if stored > early {
			grew++
			neighborsGained += stored - early
		}
		if stored > single {
			merged++
			mergedGained += stored - single
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
	t.Logf("sources %v; of %d single-peer writes %d grew past the early exit's (by %d neighbors in all), %d past the largest single reach (by %d)",
		srcCounts, srcCounts[core.SolvedBySinglePeer], grew, neighborsGained, merged, mergedGained)
	if grew < 50 || merged < 25 {
		t.Errorf("the write outgrew the early exit's in %d trials and the largest single reach in %d; fixture too weak", grew, merged)
	}
}

// The two shapes the random trials seldom draw exactly. In both, one share at
// or beside Q answers a small k, the cache has room for far more, and other
// shares lie around it.
func TestResolveCertifiesToTheRegionsEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(2302))
	srv := &bruteServer{pois: randomWorld(rng, 400)}
	q := geom.Pt(500, 500)
	const k, capacity = 2, 40
	request := func() client.Request {
		return client.Request{Q: q, K: k, Cache: cache.New(capacity), NeedAnswer: true}
	}
	r := client.NewResolver()

	// Q is the best share's own query location: its certain circle is
	// centred on Q, the radial projection of Q onto it has no direction,
	// and shares on every side push the covered disc past it.
	t.Run("Q at the best share's query location", func(t *testing.T) {
		peers := []core.PeerCache{peerAt(srv, q, 12)}
		for i := 0; i < 6; i++ {
			at := geom.Pt(q.X+60*math.Cos(float64(i)), q.Y+60*math.Sin(float64(i)))
			peers = append(peers, peerAt(srv, at, 20))
		}
		got, stored, _, single := checkCertifiedWrite(t, "centred", r, request(), peers, srv)
		if got.Src != core.SolvedBySinglePeer || single != 12 || stored <= single {
			t.Fatalf("%v stored %d neighbors, the share at Q licenses %d: want a single-peer answer the region extends", got.Src, stored, single)
		}
	})

	// The other shares all lie behind the best one as seen from Q, so the
	// point of its circle nearest Q is on the region's boundary: the merged
	// region licenses exactly what the best share does, with room to spare.
	t.Run("nothing beyond the best share", func(t *testing.T) {
		best := peerAt(srv, geom.Pt(q.X-40, q.Y), 20)
		peers := []core.PeerCache{best}
		for i := 1; i <= 4; i++ {
			peers = append(peers, peerAt(srv, geom.Pt(q.X-40-30*float64(i), q.Y), 6))
		}
		edge := geom.Pt(q.X+best.Reach(q), q.Y)
		for _, pc := range peers[1:] {
			if pc.CertainCircle().Contains(edge) {
				t.Fatalf("fixture: %v covers the best share's nearest boundary point", pc)
			}
		}
		got, stored, _, single := checkCertifiedWrite(t, "exposed", r, request(), peers, srv)
		if got.Src != core.SolvedBySinglePeer || stored != single || stored < k || stored >= capacity {
			t.Fatalf("%v stored %d neighbors, the best share licenses %d of capacity %d: want exactly its licence", got.Src, stored, single, capacity)
		}
	})
}
