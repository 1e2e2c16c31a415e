// Command nnbench is a focused harness for the server-side study of §4.4
// (Figure 17): it compares R*-tree page accesses of the original incremental
// NN algorithm (INN) and the paper's bounded extension (EINN) across k, with
// the pruning bounds produced by realistic peer caches and the cache-refill
// request semantics of policy 2 (§4.1): a query reaching the server asks for
// cache-capacity many neighbors.
//
// POIs are clustered by default, modeling real gas-station distributions
// (the source data of the paper); pass -clusters 0 for uniform placement.
//
// Usage:
//
//	nnbench [-pois N] [-queries N] [-cache N] [-fanout N] [-clusters N]
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/sim"
)

func main() {
	var (
		pois     = flag.Int("pois", 4050, "number of points of interest")
		queries  = flag.Int("queries", 500, "queries per k")
		cacheSz  = flag.Int("cache", 20, "peer cache capacity (refill request size)")
		fanout   = flag.Int("fanout", 30, "R*-tree branching factor")
		side     = flag.Float64("side", 48280, "area side length (m)")
		nCaches  = flag.Int("peers", 2000, "synthetic peer cache count")
		txRange  = flag.Float64("tx", 200, "transmission range for peer gathering (m)")
		clusters = flag.Int("clusters", 160, "POI cluster count (0 = uniform)")
		seed     = flag.Int64("seed", 17, "random seed")
		kMax     = flag.Int("kmax", 14, "largest k in the sweep")
	)
	flag.Parse()
	if *queries <= 0 {
		fmt.Fprintln(os.Stderr, "nnbench: -queries must be positive")
		os.Exit(1)
	}
	rng := rand.New(rand.NewSource(*seed))

	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(*side, *side))
	var poiSet []core.POI
	if *clusters > 0 {
		poiSet = sim.ClusteredPOIs(*pois, bounds, *clusters, *side/250, rng)
	} else {
		poiSet = sim.RandomPOIs(*pois, bounds, rng)
	}
	tree := sim.NewServerModule(poiSet, *fanout).Tree()

	caches := make([]core.PeerCache, *nCaches)
	for i := range caches {
		loc := geom.Pt(rng.Float64()**side, rng.Float64()**side)
		res, _ := nn.BestFirst(tree, loc, *cacheSz)
		ns := make([]core.POI, len(res))
		for j, r := range res {
			ns[j] = poiSet[r.Ref]
		}
		caches[i] = core.NewPeerCache(loc, ns)
	}

	fmt.Printf("EINN vs INN: %d POIs (%d clusters), fanout %d, %d peer caches of %d NNs, %d queries/k\n\n",
		*pois, *clusters, *fanout, *nCaches, *cacheSz, *queries)
	fmt.Printf("%-6s %12s %12s %12s %14s\n", "k", "INN pages", "EINN pages", "saved %", "bounds found")
	for k := 4; k <= *kMax; k += 2 {
		var innPages, einnPages int64
		var verify core.VerifierScratch
		boundsFound := 0
		for q := 0; q < *queries; q++ {
			// Queries originate at hosts that hold a drifted cache of
			// their own (see internal/experiments.EINNvsINN).
			home := caches[rng.Intn(len(caches))]
			drift := rng.Float64() * *txRange
			angle := rng.Float64() * 2 * math.Pi
			query := home.QueryLoc.Add(geom.Pt(drift*math.Cos(angle), drift*math.Sin(angle)))
			var peers []core.PeerCache
			for _, c := range caches {
				if query.Dist(c.QueryLoc) <= *txRange {
					peers = append(peers, c)
				}
			}
			heap := core.NewResultHeap(maxInt(k, *cacheSz))
			verify.VerifySinglePeers(query, k, peers, heap)
			if heap.NumCertain() >= k {
				q--
				continue // peer-resolved: never reaches the server
			}
			b := heap.Bounds()
			b.HasUpper = false
			if ub, ok := heap.UpperBoundFor(k); ok {
				b.Upper, b.HasUpper = ub, true
			}
			if b.HasLower || b.HasUpper {
				boundsFound++
			}
			want := maxInt(k, *cacheSz)

			_, pages := nn.BestFirst(tree, query, want)
			innPages += pages
			_, pages = nn.EINN(tree, query, want-heap.NumCertain(), b)
			einnPages += pages
		}
		n := float64(*queries)
		inn, einn := float64(innPages)/n, float64(einnPages)/n
		saved := 0.0
		if inn > 0 {
			saved = 100 * (inn - einn) / inn
		}
		fmt.Printf("%-6d %12.2f %12.2f %12.1f %13.0f%%\n",
			k, inn, einn, saved, 100*float64(boundsFound)/n)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
