// Road network: sharing-based nearest neighbors by travel distance (SNNN).
//
// Euclidean proximity lies: the gas station across the river is useless if
// the nearest bridge is two miles away. This example builds a synthetic road
// network (with highways that pass over rural roads), places stations along
// the roads, and compares the Euclidean kNN answer with the network-distance
// answer produced by Algorithm 2 (SNNN), drawing Euclidean candidates from
// the peer-sharing SENN pipeline.
//
// Run with:
//
//	go run ./examples/roadnetwork
package main

import (
	"fmt"
	"math/rand"

	senn "repro"
)

func main() {
	roads, err := senn.GenerateRoadNetwork(senn.GridConfig{
		Width: 4000, Height: 4000, Spacing: 250,
		SecondaryEvery: 4, HighwayEvery: 8,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("road network: %d nodes, %d edges\n", roads.NumNodes(), roads.NumEdges())

	// Stations along random road segments.
	rng := rand.New(rand.NewSource(7))
	edges := roads.Edges()
	stations := make([]senn.POI, 40)
	for i := range stations {
		e := edges[rng.Intn(len(edges))]
		t := rng.Float64()
		stations[i] = senn.POI{ID: int64(i), Loc: roads.Loc(e.From).Lerp(roads.Loc(e.To), t)}
	}
	db := senn.NewDatabase(stations)

	// A peer population that previously queried around the map.
	var peers []senn.PeerCache
	for i := 0; i < 12; i++ {
		loc := senn.Pt(rng.Float64()*4000, rng.Float64()*4000)
		peers = append(peers, senn.NewPeerCache(loc, db.KNN(loc, 8, senn.Bounds{})))
	}
	db.ResetStats()

	// Note: keep the query point away from highway grid lines (x or y
	// multiples of 2000 here) — a point next to a freeway snaps onto it and
	// every trip detours via the nearest interchange, which is realistic
	// but makes a confusing first demo.
	q := senn.Pt(1620, 2130)
	const k = 3

	// Euclidean answer via SENN (peers first, server as fallback).
	euclid := senn.Query(q, k, peers, db, senn.QueryOptions{})
	fmt.Printf("\nEuclidean %dNN of %v (resolved by %v):\n", k, q, euclid.Source)
	for _, n := range euclid.Neighbors {
		fmt.Printf("  station #%-3d ED %7.1f m\n", n.ID, n.Dist)
	}

	// Network-distance answer via SNNN: fetch is one exchange of the same
	// sharing pipeline. A host asks for its cache capacity, not for k (cache
	// policy 2), so the first exchange usually returns every candidate SNNN
	// goes on to price and a second one happens only when that ascending
	// prefix runs out (Algorithm 2 as printed runs one exchange per extra
	// candidate). Distances come from one bounded expansion over the host's
	// local road graph.
	const cacheSize = 5
	exchanges := 0
	fetch := func(n int) []senn.POI {
		exchanges++
		r := senn.Query(q, max(n, cacheSize), peers, db, senn.QueryOptions{})
		out := make([]senn.POI, len(r.Neighbors))
		for i, rp := range r.Neighbors {
			out[i] = rp.POI
		}
		return out
	}
	search := senn.NewRoadSearch(roads)
	network := senn.NetworkQuery(search, q, k, fetch)
	fmt.Printf("\nNetwork %dNN of %v (travel distance over the roads):\n", k, q)
	for _, n := range network {
		fmt.Printf("  station #%-3d ND %7.1f m  (ED %7.1f m)\n", n.ID, n.ND, n.ED)
	}
	fmt.Printf("\nSENN exchanges for the network query: %d\n", exchanges)
	fmt.Printf("road nodes settled: %d of %d\n", search.Settled(), roads.NumNodes())
	fmt.Printf("server queries: %d, page accesses: %d\n", db.Queries(), db.PageAccesses())
}
