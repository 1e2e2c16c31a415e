package sim

// Metrics aggregates the measurements the paper's evaluation plots. Counts
// cover the post-warm-up (steady state) portion of a run.
type Metrics struct {
	// TotalQueries launched.
	TotalQueries int64
	// SolvedBySingle counts queries fully certified by kNN_single.
	SolvedBySingle int64
	// SolvedByMulti counts queries completed by kNN_multiple.
	SolvedByMulti int64
	// SolvedUncertain counts full-but-uncertain answers the host accepted
	// (zero unless Config.AcceptUncertain).
	SolvedUncertain int64
	// SolvedByServer counts queries that reached the database server.
	SolvedByServer int64
	// ServerPageAccesses is the total number of R*-tree node accesses the
	// server performed (the PAR metric's numerator).
	ServerPageAccesses int64
	// PeerMessages counts P2P messages exchanged (one broadcast request per
	// query plus one cache-share response per non-empty peer cache) — the
	// communication overhead the paper names as the approach's cost.
	PeerMessages int64
	// PeerBytes is the wire volume of those messages, at the priced
	// air-interface sizes of internal/wire.
	PeerBytes int64
	// MeasuredSeconds is the simulated time covered by the counts.
	MeasuredSeconds float64
}

// pct returns 100*n/total, or 0 when nothing was counted.
func (m Metrics) pct(n int64) float64 {
	if m.TotalQueries == 0 {
		return 0
	}
	return 100 * float64(n) / float64(m.TotalQueries)
}

// SQRR is the spatial query request rate: the percentage of all client
// queries the database server had to process.
func (m Metrics) SQRR() float64 { return m.pct(m.SolvedByServer) }

// ShareSingle is the percentage of queries resolved by a single peer.
func (m Metrics) ShareSingle() float64 { return m.pct(m.SolvedBySingle) }

// ShareMulti is the percentage of queries resolved by multiple peers.
func (m Metrics) ShareMulti() float64 { return m.pct(m.SolvedByMulti) }

// ShareUncertain is the percentage of accepted uncertain answers.
func (m Metrics) ShareUncertain() float64 { return m.pct(m.SolvedUncertain) }

// PagesPerServerQuery is the average number of R*-tree node accesses per
// query that reached the server.
func (m Metrics) PagesPerServerQuery() float64 {
	if m.SolvedByServer == 0 {
		return 0
	}
	return float64(m.ServerPageAccesses) / float64(m.SolvedByServer)
}

// PeerBytesPerQuery is the average P2P wire volume per query.
func (m Metrics) PeerBytesPerQuery() float64 {
	if m.TotalQueries == 0 {
		return 0
	}
	return float64(m.PeerBytes) / float64(m.TotalQueries)
}
