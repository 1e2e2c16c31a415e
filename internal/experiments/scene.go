package experiments

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/rtree"
	"repro/internal/sim"
)

// scene is the synthetic server-side workload of Figure 17 and the §4.4 I/O
// study. The POI set is clustered, not uniform: the paper indexes real
// gas-station locations, which concentrate along arterials, and the
// downward-pruning benefit of EINN depends on leaf MBRs small enough to hide
// inside the client's certain circle — exactly what clustering produces
// (DESIGN.md, substitution D3). The peer caches are hosts that queried at
// uniform random locations and hold their exact top-C_Size NN sets, what the
// running simulator's steady state produces. A scene is read-only once
// built, so concurrent tasks share it.
type scene struct {
	base   sim.Config
	tree   *rtree.Tree
	caches []core.PeerCache
	grid   *sim.PointGrid // the caches' query locations, cell = TxRange
}

// newScene builds the scene of base's region with n peer caches, drawing
// the POIs first and then the cache locations from rng.
func newScene(base sim.Config, n int, rng *rand.Rand) *scene {
	pois := sim.ClusteredPOIs(base.NumPOIs, base.Bounds(), base.NumPOIs/25, base.AreaWidth/250, rng)
	s := &scene{base: base, tree: sim.NewServerModule(pois, base.RTreeFanout).Tree()}
	s.caches = make([]core.PeerCache, n)
	locs := make([]geom.Point, n)
	for i := range s.caches {
		locs[i] = geom.Pt(rng.Float64()*base.AreaWidth, rng.Float64()*base.AreaHeight)
		res, _ := nn.BestFirst(s.tree, locs[i], base.CacheSize)
		ns := make([]core.POI, len(res))
		for j, rr := range res {
			ns[j] = pois[rr.Ref]
		}
		s.caches[i] = core.NewPeerCache(locs[i], ns)
	}
	s.grid = sim.NewPointGrid(locs, base.Bounds(), base.TxRange)
	return s
}

// serverQuery draws queries until one reaches the server and returns it
// with the §3.3 bounds its client sends and the EINN refill size. Each draw
// runs kNN_single (Lemma 3.2) over the peers in range into a C_Size-deep
// heap; a query with k certified neighbors is peer-resolved and never
// reaches the server. Cache policy 2 (§4.1): a query that does asks for
// max(C_Size, k) neighbors to refill the host cache, less those already
// certified, and the upper bound is the one valid for k.
func (s *scene) serverQuery(rng *rand.Rand, verify *core.VerifierScratch, k int) (geom.Point, nn.Bounds, int) {
	for {
		q, peers := s.draw(rng)
		heap := core.NewResultHeap(max(s.base.CacheSize, k))
		verify.VerifySinglePeers(q, k, peers, heap)
		if heap.NumCertain() < k {
			b := heap.Bounds()
			b.Upper, b.HasUpper = heap.UpperBoundFor(k)
			return q, b, max(s.base.CacheSize, k) - heap.NumCertain()
		}
	}
}

// draw samples one query. A querying host always carries its own cached
// previous result, so the query sits at a random cache's location displaced
// by up to one transmission range (the travel since that query was cached).
// It returns the query and every cache within transmission range of it, in
// ascending cache order.
func (s *scene) draw(rng *rand.Rand) (geom.Point, []core.PeerCache) {
	home := s.caches[rng.Intn(len(s.caches))]
	drift := rng.Float64() * s.base.TxRange
	angle := rng.Float64() * 2 * math.Pi
	q := home.QueryLoc.Add(geom.Pt(drift*math.Cos(angle), drift*math.Sin(angle)))
	var idx []int32
	s.grid.ForEachWithin(q, s.base.TxRange, func(i int32) { idx = append(idx, i) })
	slices.Sort(idx)
	peers := make([]core.PeerCache, len(idx))
	for j, i := range idx {
		peers[j] = s.caches[i]
	}
	return q, peers
}
