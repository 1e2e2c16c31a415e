package sim

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/nn"
)

// smallConfig is a fast, dense configuration that exercises every query
// resolution path.
func smallConfig() Config {
	return Config{
		AreaWidth: 2000, AreaHeight: 2000,
		NumPOIs:          30,
		NumHosts:         150,
		CacheSize:        10,
		MovePercentage:   0.8,
		Velocity:         13.4,
		QueriesPerMinute: 300,
		TxRange:          250,
		KMin:             1, KMax: 5,
		Duration: 240,
		Mode:     ModeRoadNetwork,
		MaxPause: 10,
		Seed:     1,
	}
}

func TestConfigValidate(t *testing.T) {
	valid := smallConfig()
	if _, err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	breakers := []func(*Config){
		func(c *Config) { c.AreaWidth = 0 },
		func(c *Config) { c.NumPOIs = 0 },
		func(c *Config) { c.NumHosts = 0 },
		func(c *Config) { c.CacheSize = 0 },
		func(c *Config) { c.MovePercentage = 1.5 },
		func(c *Config) { c.Velocity = 0 },
		func(c *Config) { c.QueriesPerMinute = 0 },
		func(c *Config) { c.TxRange = -1 },
		func(c *Config) { c.KMin = 0 },
		func(c *Config) { c.KMax = 0 },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.WarmupFraction = 1 },
		func(c *Config) { c.RTreeFanout = 2 },
	}
	for i, brk := range breakers {
		c := smallConfig()
		brk(&c)
		if _, err := c.Validate(); err == nil {
			t.Errorf("breaker %d: invalid config accepted", i)
		}
	}
	// Defaults fill in.
	c, _ := smallConfig().Validate()
	if c.WarmupFraction == 0 || c.StepSeconds == 0 || c.RTreeFanout != 30 ||
		c.RoadSpacing == 0 || c.TripRadius == 0 {
		t.Errorf("defaults not applied: %+v", c)
	}
}

func TestModeString(t *testing.T) {
	for _, m := range []Mode{ModeRoadNetwork, ModeFreeMovement, Mode(7)} {
		if m.String() == "" {
			t.Errorf("empty string for mode %d", int(m))
		}
	}
}

func TestServerModuleCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pois := RandomPOIs(500, geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000)), rng)
	srv := NewServerModule(pois, 30)
	if srv.Queries() != 0 || srv.PageAccesses() != 0 {
		t.Fatal("fresh server has non-zero stats")
	}
	got := srv.KNN(geom.Pt(500, 500), 5, nn.NoBounds)
	if len(got) != 5 {
		t.Fatalf("KNN returned %d", len(got))
	}
	if srv.Queries() != 1 || srv.PageAccesses() < 1 {
		t.Errorf("stats not counted: q=%d p=%d", srv.Queries(), srv.PageAccesses())
	}
	srv.ResetStats()
	if srv.Queries() != 0 || srv.PageAccesses() != 0 {
		t.Error("reset failed")
	}
	if len(srv.POIs()) != 500 {
		t.Errorf("POIs len = %d", len(srv.POIs()))
	}
}

// forNeighbors is a per-query grid sweep, kept test-local as the oracle the
// index tests compare against: fn sees every host
// filed in a cell of Cover(p, r), cells row-major and hosts ascending within
// a cell (callers distance-filter; the grid over-approximates). It walks the
// buckets one cell at a time, independently of Index.Row.
func (g *hostGrid) forNeighbors(p geom.Point, r float64, fn func(i int32)) {
	cx, cy := g.RawCell(p)
	x0, y0, x1, y1 := g.Cover(cx, cy, r)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			c := y*g.NX() + x
			for _, i := range g.Entries[g.Start[c]:g.Start[c+1]] {
				fn(i)
			}
		}
	}
}

func TestHostGrid(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))
	g := newHostGrid(bounds, 100, 100)
	rng := rand.New(rand.NewSource(2))
	pos := make([]geom.Point, 100)
	cells := make([]int32, 100)
	reindex := func() {
		for i, p := range pos {
			cells[i] = g.CellIndex(p)
		}
		g.Build(cells)
	}
	for i := range pos {
		pos[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	reindex()
	// Move half of them and rebuild, as a movement step does.
	for i := 0; i < 50; i++ {
		pos[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	reindex()
	// Range query vs brute force from several centers.
	for trial := 0; trial < 50; trial++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		r := 150.0
		want := map[int32]bool{}
		for i, p := range pos {
			if q.Dist(p) <= r {
				want[int32(i)] = true
			}
		}
		got := map[int32]bool{}
		g.forNeighbors(q, r, func(i int32) {
			if q.Dist(pos[i]) <= r {
				got[i] = true
			}
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if !got[i] {
				t.Fatalf("trial %d: missing host %d", trial, i)
			}
		}
	}
}

func TestRunAccountingConservation(t *testing.T) {
	w, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := w.Run()
	if m.TotalQueries == 0 {
		t.Fatal("no queries recorded")
	}
	sum := m.SolvedBySingle + m.SolvedByMulti + m.SolvedByServer + m.SolvedUncertain
	if sum != m.TotalQueries {
		t.Fatalf("outcome counts %d do not sum to total %d", sum, m.TotalQueries)
	}
	if m.SolvedUncertain != 0 {
		t.Errorf("uncertain answers recorded without AcceptUncertain: %d", m.SolvedUncertain)
	}
	// With a dense population and generous range, peers must solve a
	// meaningful share.
	if m.SolvedBySingle+m.SolvedByMulti == 0 {
		t.Error("peer sharing never resolved a query in a dense scenario")
	}
	if m.SolvedByServer == 0 {
		t.Error("server never queried; scenario implausibly easy")
	}
	if m.SolvedByServer > 0 && m.ServerPageAccesses == 0 {
		t.Error("server queries recorded but no page accesses")
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() Metrics {
		w, err := New(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		return w.Run()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different metrics:\n%+v\n%+v", a, b)
	}
	cfg := smallConfig()
	cfg.Seed = 99
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := w.Run()
	if a == c {
		t.Error("different seeds produced identical metrics")
	}
}

func TestFreeMovementMode(t *testing.T) {
	cfg := smallConfig()
	cfg.Mode = ModeFreeMovement
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.Roads() != nil {
		t.Error("free movement mode should not build a road network")
	}
	m := w.Run()
	if m.TotalQueries == 0 {
		t.Fatal("no queries in free mode")
	}
	sum := m.SolvedBySingle + m.SolvedByMulti + m.SolvedByServer + m.SolvedUncertain
	if sum != m.TotalQueries {
		t.Fatalf("conservation violated in free mode")
	}
}

func TestAcceptUncertainMode(t *testing.T) {
	cfg := smallConfig()
	cfg.AcceptUncertain = true
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := w.Run()
	sum := m.SolvedBySingle + m.SolvedByMulti + m.SolvedByServer + m.SolvedUncertain
	if sum != m.TotalQueries {
		t.Fatal("conservation violated with AcceptUncertain")
	}
}

// Zero transmission range means no peer contact: after warm-up each query is
// answerable only by the host's own cache or the server.
func TestZeroTxRange(t *testing.T) {
	cfg := smallConfig()
	cfg.TxRange = 0
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := w.Run()
	if m.SolvedByMulti > m.TotalQueries/10 {
		t.Errorf("multi-peer solved %d of %d with zero range", m.SolvedByMulti, m.TotalQueries)
	}
}

// The paper's central scalability claim: a larger transmission range lets
// peers resolve more queries, shrinking the server share (Figures 9/10).
func TestTxRangeTrend(t *testing.T) {
	sqrrAt := func(txRange float64) float64 {
		cfg := smallConfig()
		cfg.TxRange = txRange
		cfg.Seed = 7
		w, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return w.Run().SQRR()
	}
	small, large := sqrrAt(20), sqrrAt(400)
	if large >= small {
		t.Errorf("SQRR did not drop with range: %v%% at 20 m vs %v%% at 400 m", small, large)
	}
}

// Higher host density means more peers in range and a lower server share —
// the scalability headline of the paper.
func TestDensityTrend(t *testing.T) {
	sqrrAt := func(hosts int) float64 {
		cfg := smallConfig()
		cfg.NumHosts = hosts
		cfg.Seed = 11
		w, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return w.Run().SQRR()
	}
	sparse, dense := sqrrAt(25), sqrrAt(300)
	if dense >= sparse {
		t.Errorf("SQRR did not drop with density: %v%% at 25 hosts vs %v%% at 300", sparse, dense)
	}
}

// P2P communication accounting: every recorded query issues at least its
// broadcast request; bytes scale with peers and cache sizes.
func TestPeerCommunicationAccounting(t *testing.T) {
	cfg := smallConfig()
	cfg.Duration = 300
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := w.Run()
	if m.PeerMessages < m.TotalQueries {
		t.Errorf("messages %d below one request per query (%d queries)",
			m.PeerMessages, m.TotalQueries)
	}
	if m.PeerBytes <= m.PeerMessages {
		t.Errorf("bytes %d implausibly low for %d messages", m.PeerBytes, m.PeerMessages)
	}
	if m.PeerBytesPerQuery() <= 0 {
		t.Error("PeerBytesPerQuery not positive")
	}
	// Zero transmission range in free movement (continuous positions, so no
	// two hosts coincide exactly): exactly one broadcast per query and no
	// responses — the host's own cache is local, not a message.
	cfg2 := smallConfig()
	cfg2.TxRange = 0
	cfg2.Duration = 300
	cfg2.Mode = ModeFreeMovement
	w2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	m2 := w2.Run()
	if m2.PeerMessages != m2.TotalQueries {
		t.Errorf("zero-range messages %d, want exactly %d (one request per query)",
			m2.PeerMessages, m2.TotalQueries)
	}
}

func TestMetricsHelpers(t *testing.T) {
	m := Metrics{
		TotalQueries:       100,
		SolvedBySingle:     50,
		SolvedByMulti:      10,
		SolvedByServer:     40,
		ServerPageAccesses: 400,
	}
	if m.SQRR() != 40 || m.ShareSingle() != 50 || m.ShareMulti() != 10 {
		t.Errorf("percentages wrong: %v %v %v", m.SQRR(), m.ShareSingle(), m.ShareMulti())
	}
	if m.PagesPerServerQuery() != 10 {
		t.Errorf("PagesPerServerQuery = %v", m.PagesPerServerQuery())
	}
	var zero Metrics
	if zero.SQRR() != 0 || zero.PagesPerServerQuery() != 0 {
		t.Error("zero metrics should not divide by zero")
	}
	if m.String() == "" {
		t.Error("empty String")
	}
}
