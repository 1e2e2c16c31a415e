// Package senn is the public facade of this repository: a from-scratch Go
// implementation of "Location-based Spatial Queries with Data Sharing in
// Mobile Environments" (Ku, Zimmermann, Wan — USC TR 05-843 / ICDE 2006).
//
// The paper's idea: a mobile host answers k-nearest-neighbor queries by
// verifying the cached kNN results of peers reachable over a short-range
// ad-hoc network. A result object from a peer is provably correct
// ("certain") when the disc around the query point through the object lies
// inside the peer's known area (Lemma 3.2), or inside the merged known area
// of several peers (Lemma 3.8). Only the uncertified remainder goes to the
// remote spatial database — along with pruning bounds that cut the server's
// R*-tree page accesses (the EINN algorithm, §3.3). An extension answers
// network-distance queries over road networks (SNNN, §3.4).
//
// This package re-exports the stable API surface from the internal
// implementation packages; the examples/ directory shows complete programs
// built on it. (In an external release the internal packages would simply be
// lifted to public paths; the facade keeps the repository layout of
// DESIGN.md while offering one import for downstream use.)
package senn

import (
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/spatialnet"
)

// Geometric primitives.
type (
	// Point is a planar location in meters.
	Point = geom.Point
	// Circle is a closed disc.
	Circle = geom.Circle
	// Region is a union of discs — the merged certain region R_c of
	// multi-peer verification; Region.MaxCoveredRadius decides Lemma 3.8.
	Region = geom.Region
)

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// NewRegion builds the union of the given discs.
func NewRegion(circles ...Circle) *Region { return geom.NewRegion(circles...) }

// Core sharing-based query types (§3.2–3.3).
type (
	// POI is a point of interest (the query target objects).
	POI = core.POI
	// RankedPOI is a POI with its distance and (when certified) exact rank.
	RankedPOI = core.RankedPOI
	// PeerCache is the kNN result a peer shares: its query location and the
	// certain neighbors it holds.
	PeerCache = core.PeerCache
	// ResultHeap is the heap H of certain and uncertain candidates.
	ResultHeap = core.ResultHeap
	// Candidate is an entry of the heap H.
	Candidate = core.Candidate
	// HeapState classifies H per §3.3 (states 1–6).
	HeapState = core.HeapState
	// Bounds carries the branch-expanding lower/upper bounds for the
	// server's EINN search.
	Bounds = nn.Bounds
	// Server is the remote database interface SENN falls back to.
	Server = core.Server
	// QueryOptions configures a SENN query.
	QueryOptions = core.Options
	// QueryResult is the outcome of a SENN query.
	QueryResult = core.Result
	// Source tells how a query was resolved (single peer, multiple peers,
	// uncertain, or server).
	Source = core.Source
)

// Re-exported Source values.
const (
	SolvedBySinglePeer = core.SolvedBySinglePeer
	SolvedByMultiPeer  = core.SolvedByMultiPeer
	SolvedUncertain    = core.SolvedUncertain
	SolvedByServer     = core.SolvedByServer
)

// NewPeerCache builds a shareable peer cache entry from an unordered
// neighbor set.
func NewPeerCache(queryLoc Point, neighbors []POI) PeerCache {
	return core.NewPeerCache(queryLoc, neighbors)
}

// NewResultHeap returns an empty heap H for a query requesting k neighbors.
func NewResultHeap(k int) *ResultHeap { return core.NewResultHeap(k) }

// Query executes the SENN algorithm (Algorithm 1): verify cached results
// from the given peers, then fall back to srv (which may be nil) for the
// uncertified remainder.
func Query(q Point, k int, peers []PeerCache, srv Server, opts QueryOptions) QueryResult {
	return core.SENN(q, k, peers, srv, opts)
}

// Range-query extension (the paper's §5 future work).
type (
	// RangeServer is the remote database interface for range queries.
	RangeServer = core.RangeServer
	// RangeResult is the outcome of a sharing-based range query.
	RangeResult = core.RangeResult
)

// RangeQueryWithin answers "every POI within r of q" through peer
// verification with server fallback, extending the SENN machinery to range
// queries (the paper's first listed piece of future work).
func RangeQueryWithin(q Point, r float64, peers []PeerCache, srv RangeServer, opts QueryOptions) RangeResult {
	return core.RangeQuery(q, r, peers, srv, opts)
}

// VerifySinglePeer runs kNN_single for one peer (Lemma 3.2) against heap h.
func VerifySinglePeer(q Point, peer PeerCache, h *ResultHeap) {
	core.VerifySinglePeer(q, peer, h)
}

// VerifyMultiPeer runs kNN_multiple (Lemma 3.8): every neighbor the peers
// hold enters h, certain when it lies within the covered radius of their
// merged certain region around q (Region.MaxCoveredRadius), uncertain beyond
// it. It certifies whatever VerifySinglePeer on each peer would.
func VerifyMultiPeer(q Point, peers []PeerCache, h *ResultHeap) {
	core.VerifyMultiPeer(q, peers, h)
}

// Database is an in-process spatial database server: an R*-tree over a POI
// set answering bounded kNN queries with the EINN algorithm and counting its
// page accesses. It implements Server.
type Database = sim.ServerModule

// NewDatabase indexes pois with the paper's default branching factor (30).
func NewDatabase(pois []POI) *Database { return sim.NewServerModule(pois, 30) }

// NewDatabaseFanout indexes pois with an explicit branching factor.
func NewDatabaseFanout(pois []POI, fanout int) *Database {
	return sim.NewServerModule(pois, fanout)
}

// Spatial network queries (§3.4).
type (
	// RoadNetwork is a road graph with per-class speed limits.
	RoadNetwork = spatialnet.Graph
	// RoadClass categorizes segments (highway, secondary, rural).
	RoadClass = spatialnet.RoadClass
	// RoadSegment is a raw input segment for network construction.
	RoadSegment = spatialnet.Segment
	// GridConfig parameterizes the synthetic road network generator.
	GridConfig = spatialnet.GridConfig
	// NetworkResult is one network-distance nearest neighbor.
	NetworkResult = spatialnet.NetworkResult
	// FetchFunc is one exchange of the sharing infrastructure: the Euclidean
	// NNs SNNN draws its candidates from.
	FetchFunc = spatialnet.FetchFunc
	// RoadSearch is the reusable Dijkstra scratch over one road network that
	// network queries and distances run on. Not safe for concurrent use.
	RoadSearch = spatialnet.PathFinder
)

// Road classes.
const (
	ClassHighway   = spatialnet.ClassHighway
	ClassSecondary = spatialnet.ClassSecondary
	ClassRural     = spatialnet.ClassRural
)

// GenerateRoadNetwork builds a synthetic TIGER/LINE-style road network.
func GenerateRoadNetwork(cfg GridConfig) (*RoadNetwork, error) {
	return spatialnet.GenerateGrid(cfg)
}

// RoadNetworkFromSegments integrates raw segments, detecting junctions and
// over-passes (§4.1.2).
func RoadNetworkFromSegments(segs []RoadSegment) (*RoadNetwork, error) {
	return spatialnet.FromSegments(segs)
}

// NewRoadSearch returns the search scratch for network queries over g. Keep
// one per goroutine and reuse it: a query then allocates only its result.
func NewRoadSearch(g *RoadNetwork) *RoadSearch { return spatialnet.NewPathFinder(g) }

// NetworkQuery executes the SNNN algorithm (Algorithm 2): the k
// network-distance nearest neighbors of q, drawing Euclidean candidates from
// fetch — typically backed by Query — and pricing them with one bounded
// expansion of s from q.
func NetworkQuery(s *RoadSearch, q Point, k int, fetch FetchFunc) []NetworkResult {
	return spatialnet.SNNN(s, q, k, fetch)
}

// NetworkDistance returns the network distance between two arbitrary points:
// each is snapped onto its nearest road segment and the snap offsets are
// added. ok is false when no road connects them.
func NetworkDistance(s *RoadSearch, p, q Point) (float64, bool) {
	return s.NetworkDistance(p, q)
}

// Simulation (§4).
type (
	// SimConfig holds every Table 2 simulation parameter.
	SimConfig = sim.Config
	// SimMetrics aggregates SQRR/PAR and the resolution shares.
	SimMetrics = sim.Metrics
	// Simulation is a constructed world ready to run.
	Simulation = sim.World
)

// Simulation modes.
const (
	ModeRoadNetwork  = sim.ModeRoadNetwork
	ModeFreeMovement = sim.ModeFreeMovement
)

// NewSimulation builds a simulation world from cfg.
func NewSimulation(cfg SimConfig) (*Simulation, error) { return sim.New(cfg) }

// Paper parameter sets (Tables 3 and 4).
type (
	// ParamRegion selects Los Angeles / Suburbia / Riverside.
	ParamRegion = experiments.Region
	// ParamArea selects the 2×2 mi or 30×30 mi region.
	ParamArea = experiments.Area
)

// Parameter-set selectors.
const (
	LosAngeles = experiments.LosAngeles
	Suburbia   = experiments.Suburbia
	Riverside  = experiments.Riverside
	Area2mi    = experiments.Area2mi
	Area30mi   = experiments.Area30mi
)

// PaperConfig returns the Table 3/4 configuration for a region and area.
func PaperConfig(r ParamRegion, a ParamArea) SimConfig {
	return experiments.BaseConfig(r, a)
}
