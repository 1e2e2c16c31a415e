// Server bounds: how partial peer answers speed up the database (EINN).
//
// When peer verification certifies only part of a kNN answer, the heap H
// still yields two bounds (§3.3): everything inside the last certain
// neighbor's circle is already known (the lower bound), and no true top-k
// neighbor can be farther than the k-th entry of H (the upper bound). The
// server's R*-tree search prunes with both — MBRs inside the certain circle
// are skipped (MAXDIST, downward pruning) and MBRs beyond the upper bound
// are discarded (MINDIST, upward pruning).
//
// The effect matters under the paper's cache policy 2: a query that reaches
// the server asks for cache-capacity many neighbors (here 60) to refill the
// host cache, and the upper bound lets EINN cut that deep search off early.
// Like the paper's gas stations, the stations here are clustered — that is
// what makes R*-tree leaves small enough for the pruning to skip pages.
//
// Run with:
//
//	go run ./examples/serverbounds
package main

import (
	"fmt"
	"math/rand"

	senn "repro"
)

func main() {
	rng := rand.New(rand.NewSource(42))
	// 5000 stations in gaussian pockets over a 10x10 km area.
	stations := make([]senn.POI, 5000)
	var centers []senn.Point
	for i := 0; i < 350; i++ {
		centers = append(centers, senn.Pt(rng.Float64()*10000, rng.Float64()*10000))
	}
	for i := range stations {
		c := centers[rng.Intn(len(centers))]
		stations[i] = senn.POI{ID: int64(i), Loc: senn.Pt(
			c.X+rng.NormFloat64()*60, c.Y+rng.NormFloat64()*60)}
	}
	db := senn.NewDatabase(stations)

	const (
		k        = 5  // what the application asked for
		capacity = 60 // cache refill size (policy 2; deep to make the single-query effect visible)
	)

	// Two peers with different histories: a close one that cached a small
	// 4-NN result (certifies a prefix of the answer) and a farther one
	// whose 30 cached stations stay uncertain but fill the heap, so
	// both bounds materialize.
	q := centers[7]
	nearLoc := senn.Pt(q.X+12, q.Y+9)
	farLoc := senn.Pt(q.X+250, q.Y+60)
	near := senn.NewPeerCache(nearLoc, db.KNN(nearLoc, 4, senn.Bounds{}))
	far := senn.NewPeerCache(farLoc, db.KNN(farLoc, 30, senn.Bounds{}))
	db.ResetStats()

	// Verify the peers' results locally into a capacity-sized heap.
	h := senn.NewResultHeap(capacity)
	senn.VerifyMultiPeer(q, []senn.PeerCache{near, far}, h)
	fmt.Printf("two peers shared %d stations; %d verified certain (k=%d wanted)\n",
		4+30, h.NumCertain(), k)
	b := h.Bounds()
	b.HasUpper = false
	if ub, ok := h.UpperBoundFor(k); ok {
		b.Upper, b.HasUpper = ub, true
	}
	if b.HasLower {
		fmt.Printf("  lower bound (certain circle radius): %.1f m\n", b.Lower)
	}
	if b.HasUpper {
		fmt.Printf("  upper bound (k-th entry of H):       %.1f m\n", b.Upper)
	}
	if h.NumCertain() >= k {
		fmt.Println("  (peer alone answers the query; rerun with another seed for a partial case)")
	}

	// Plain INN: the server pages out to the capacity-th neighbor.
	db.ResetStats()
	db.KNN(q, capacity, senn.Bounds{})
	innPages := db.PageAccesses()

	// EINN: the server answers only the uncertified remainder, pruned by
	// the client's bounds; the refill truncates at the upper bound.
	db.ResetStats()
	rest := db.KNN(q, capacity-h.NumCertain(), b)
	einnPages := db.PageAccesses()

	fmt.Printf("\nserver work for the same request (refill to %d):\n", capacity)
	fmt.Printf("  INN  (no bounds):   %3d page accesses\n", innPages)
	fmt.Printf("  EINN (with bounds): %3d page accesses, %d results beyond the certain circle\n",
		einnPages, len(rest))
	if innPages > 0 {
		fmt.Printf("  saved: %.0f%%\n", 100*float64(innPages-einnPages)/float64(innPages))
	}

	// The client merges its certain prefix with the server's remainder; the
	// top k answers the query, the rest refills the cache.
	fmt.Printf("\nanswer (top %d of the merged prefix):\n", k)
	rank := 1
	for _, c := range h.CertainEntries() {
		if rank > k {
			break
		}
		fmt.Printf("  rank %2d: station #%-4d %7.1f m  (verified from peer)\n", rank, c.ID, c.Dist)
		rank++
	}
	for _, p := range rest {
		if rank > k {
			break
		}
		fmt.Printf("  rank %2d: station #%-4d %7.1f m  (from server)\n", rank, p.ID, q.Dist(p.Loc))
		rank++
	}
}
