package core

import (
	"repro/internal/geom"
	"repro/internal/nn"
)

// Server is the remote spatial database interface a mobile host falls back
// to when peer data cannot certify a full answer. KNN must return up to k
// POIs whose distance to q is strictly greater than the lower bound (when
// set), in ascending distance order, using the bounds for search pruning
// exactly as internal/nn's EINN does.
type Server interface {
	KNN(q geom.Point, k int, b nn.Bounds) []POI
}

// Source identifies how a SENN query was resolved — the three series every
// figure of the paper's evaluation plots.
type Source int

const (
	// SolvedBySinglePeer — kNN_single certified k objects.
	SolvedBySinglePeer Source = iota
	// SolvedByMultiPeer — kNN_multiple over the merged region completed the
	// verification.
	SolvedByMultiPeer
	// SolvedUncertain — the host accepted a full but partially uncertain
	// answer without contacting the server (Algorithm 1 line 15).
	SolvedUncertain
	// SolvedByServer — the remainder was fetched from the database server.
	SolvedByServer
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case SolvedBySinglePeer:
		return "single-peer"
	case SolvedByMultiPeer:
		return "multi-peer"
	case SolvedUncertain:
		return "uncertain"
	case SolvedByServer:
		return "server"
	default:
		return "invalid"
	}
}

// Options configures a SENN query.
type Options struct {
	// AcceptUncertain allows returning a full heap that still contains
	// uncertain entries without querying the server (Algorithm 1 line 15).
	AcceptUncertain bool
}

// Result is the outcome of a SENN query.
type Result struct {
	// Neighbors holds up to k POIs in ascending distance order. When
	// Source != SolvedUncertain they are the exact k nearest neighbors
	// (assuming at least k POIs exist).
	Neighbors []RankedPOI
	// Source records which mechanism resolved the query.
	Source Source
	// State is the heap state after peer verification (§3.3), informative
	// even when the query completed without the server.
	State HeapState
	// Bounds are the branch-expanding bounds that were (or would have been)
	// forwarded to the server.
	Bounds nn.Bounds
	// PeersUsed is the number of non-empty peer caches received.
	PeersUsed int
}

// SENN executes Algorithm 1, the Sharing-based Euclidean distance Nearest
// Neighbor query: verify the peer results singly and jointly
// (VerifierScratch.VerifyPeers), then — unless an uncertain answer is
// acceptable — query the server with the pruning bounds for the uncertified
// remainder.
//
// srv may be nil, modeling a host with no server connectivity: the best
// available (possibly partial or uncertain) answer is returned with Source
// SolvedUncertain.
func SENN(q geom.Point, k int, peers []PeerCache, srv Server, opts Options) Result {
	h := NewResultHeap(k)
	var s VerifierScratch
	used, single := s.VerifyPeers(q, k, peers, h)
	res := Result{State: h.State(), Bounds: h.Bounds(), PeersUsed: used}
	switch {
	case single:
		res.Source = SolvedBySinglePeer
	case h.Complete():
		res.Source = SolvedByMultiPeer
	case opts.AcceptUncertain && h.Full() || srv == nil:
		// Algorithm 1 line 15: a full heap with uncertain entries may be
		// acceptable to the application.
		res.Source = SolvedUncertain
	default:
		res.Source = SolvedByServer
	}
	if res.Source != SolvedByServer {
		res.Neighbors = rankedFromHeap(h)
		return res
	}

	// Fall back to the server for the uncertified remainder, forwarding the
	// branch-expanding bounds. The certain prefix (ranks 1..j) is kept; the
	// server supplies ranks j+1..k, all at distance > bounds.Lower.
	certain := h.CertainView()
	res.Neighbors = make([]RankedPOI, 0, k)
	for i, c := range certain {
		res.Neighbors = append(res.Neighbors, RankedPOI{POI: c.POI, Dist: c.Dist, Rank: i + 1})
	}
	for _, p := range srv.KNN(q, k-len(certain), res.Bounds) {
		if len(res.Neighbors) >= k {
			break
		}
		res.Neighbors = append(res.Neighbors, RankedPOI{
			POI:  p,
			Dist: q.Dist(p.Loc),
			Rank: len(res.Neighbors) + 1,
		})
	}
	return res
}

// rankedFromHeap converts heap entries into ranked results. Certain entries
// carry exact ranks (Lemma 3.7); uncertain ones carry rank 0.
func rankedFromHeap(h *ResultHeap) []RankedPOI {
	entries := h.Entries()
	out := make([]RankedPOI, 0, len(entries))
	for i, c := range entries {
		rank := 0
		if c.Certain {
			rank = i + 1
		}
		out = append(out, RankedPOI{POI: c.POI, Dist: c.Dist, Rank: rank})
	}
	return out
}
