package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/spatialnet"
	"repro/internal/wire"
)

// refWorld is the simulator in the per-host layout World had before its
// memory diet, kept as the oracle for TestWorldLayoutEquivalence: a
// population-sized waypoint engine whose slot is the host index, one heap
// *cache.Cache per host, a full grid rebuild every step, one sequential
// resolver. What the layout must not change is written out independently
// here — the order of RNG draws in population set-up and query planning,
// resolve-then-commit per step, the metrics tallies — while Algorithm 1
// (client.Resolver), the server module and the grid sweep order are the
// shared, separately tested pieces.
type refWorld struct {
	cfg    Config
	rng    *rand.Rand
	server *ServerModule
	srv    simServerSource

	pos    []geom.Point
	cells  []int32
	caches []*cache.Cache
	moving []int32
	wp     *mobility.Waypoints     // free movement: slot = host index
	road   []*mobility.RoadNetwork // road mode: road[j] drives moving[j]
	grid   *hostGrid
	nextAt float64

	// earlyExit resolves every query through earlyExitPeers: the world as
	// it ran while kNN_single returned at the k-th certificate.
	earlyExit bool
}

// newRefWorld builds the reference world of a validated cfg. roads is the
// production world's read-only graph (nil in free movement); the reference
// plans its routes with a PathFinder of its own.
func newRefWorld(cfg Config, roads *spatialnet.Graph) *refWorld {
	rng := rand.New(rand.NewSource(cfg.Seed))
	r := &refWorld{cfg: cfg, rng: rng}
	r.server = NewServerModule(RandomPOIs(cfg.NumPOIs, cfg.Bounds(), rng), Fanout)
	r.srv.mod = r.server

	n := cfg.NumHosts
	r.grid = newHostGrid(cfg.Bounds(), n, cfg.TxRange)
	r.pos = make([]geom.Point, n)
	r.cells = make([]int32, n)
	r.caches = make([]*cache.Cache, n)
	var finder *spatialnet.PathFinder
	if roads != nil {
		finder = spatialnet.NewPathFinder(roads)
	} else {
		r.wp = mobility.NewWaypoints(cfg.Bounds(), cfg.Velocity, cfg.MaxPause, cfg.TripRadius, n)
	}
	for i := 0; i < n; i++ {
		r.caches[i] = cache.New(cfg.CacheSize)
		start := geom.Pt(rng.Float64()*cfg.AreaWidth, rng.Float64()*cfg.AreaHeight)
		moving := rng.Float64() < cfg.MovePercentage
		switch {
		case roads == nil:
			r.pos[i] = start
			if moving {
				r.wp.Seed(i, start, rng.Uint64())
				r.moving = append(r.moving, int32(i))
			}
		case !moving:
			node, _ := roads.NearestNodeIndexed(start)
			r.pos[i] = roads.Loc(node)
		default:
			node, _ := roads.NearestNodeIndexed(start)
			m := mobility.NewRoadNetworkWith(roads, node, cfg.Velocity, cfg.MaxPause,
				rand.New(rand.NewSource(rng.Int63())),
				mobility.RoadNetworkOptions{Finder: finder, TripRadius: cfg.TripRadius})
			r.pos[i] = m.Pos()
			r.road = append(r.road, m)
			r.moving = append(r.moving, int32(i))
		}
		r.cells[i] = r.grid.CellIndex(r.pos[i])
	}
	r.grid.Build(r.cells)
	r.schedule()
	return r
}

func (r *refWorld) schedule() {
	r.nextAt += r.rng.ExpFloat64() * 60.0 / r.cfg.QueriesPerMinute
}

// refPeers is the P2P exchange over the reference world's per-host caches:
// the same sweep order and codec-size accounting as simPeerSource.
type refPeers struct {
	r    *refWorld
	host int32
}

func (s refPeers) Gather(q geom.Point, dst []core.PeerCache) ([]core.PeerCache, int64, int64) {
	r := s.r
	msgs, bytes := int64(1), int64(wire.CacheRequestSize)
	cx, cy := r.grid.RawCell(q)
	x0, y0, x1, y1 := r.grid.Cover(cx, cy, r.cfg.TxRange)
	for y := y0; y <= y1; y++ {
		for _, h := range r.grid.Row(y, x0, x1) {
			if h == s.host || q.Dist2(r.pos[h]) > r.cfg.TxRange*r.cfg.TxRange {
				continue
			}
			if ent, ok := r.caches[h].Entry(); ok {
				dst = append(dst, ent)
				msgs++
				bytes += int64(wire.CacheShareSize(len(ent.Neighbors)))
			}
		}
	}
	return dst, msgs, bytes
}

// earlyExitPeers is the early-exit oracle at simulator level: a PeerSource
// that runs kNN_single literally as Algorithm 1 prints it — Heuristic 3.3
// order, return at the k-th certificate — over everything gathered (dst
// arrives holding the querying host's own entry) and hands the resolver only
// the shares that loop looked at. With nothing received but unvisited,
// client.Resolver has nothing further to certify and stages exactly the write
// the early exit staged; source, messages and bytes are the full exchange's.
// When the loop does not answer, every share goes on to kNN_multiple
// unchanged.
type earlyExitPeers struct {
	inner client.PeerSource
	k     int
}

func (s earlyExitPeers) Gather(q geom.Point, dst []core.PeerCache) ([]core.PeerCache, int64, int64) {
	peers, msgs, bytes := s.inner.Gather(q, dst)
	sort.SliceStable(peers, func(i, j int) bool {
		return q.Dist2(peers[i].QueryLoc) < q.Dist2(peers[j].QueryLoc)
	})
	h := core.NewResultHeap(s.k)
	for i, pc := range peers {
		core.VerifySinglePeer(q, pc, h)
		if h.Complete() {
			return peers[:i+1], msgs, bytes // the early exit
		}
	}
	return peers, msgs, bytes
}

func (r *refWorld) run() Metrics {
	type plan struct {
		host      int32
		k         int
		recording bool
	}
	var (
		m     Metrics
		plans []plan
		outs  []client.Outcome
		res   = client.NewResolver()
		cfg   = r.cfg
	)
	warmupEnd := cfg.Duration * warmupFraction
	for now := 0.0; now < cfg.Duration; {
		stepEnd := math.Min(now+stepSeconds, cfg.Duration)
		plans, outs = plans[:0], outs[:0]
		for r.nextAt <= stepEnd {
			plans = append(plans, plan{
				host:      int32(r.rng.Intn(len(r.pos))),
				k:         cfg.KMin + r.rng.Intn(cfg.KMax-cfg.KMin+1),
				recording: r.nextAt >= warmupEnd,
			})
			r.schedule()
		}
		// Every query of the step resolves against the step-start caches;
		// the writes land afterwards, in event order.
		res.ResetArena()
		for _, p := range plans {
			var ps client.PeerSource = refPeers{r, p.host}
			if r.earlyExit {
				ps = earlyExitPeers{ps, p.k}
			}
			outs = append(outs, res.Resolve(client.Request{
				Q: r.pos[p.host], K: p.k, Cache: r.caches[p.host], AcceptUncertain: cfg.AcceptUncertain,
			}, ps, &r.srv))
		}
		for i, p := range plans {
			o := &outs[i]
			if p.recording {
				m.TotalQueries++
				switch o.Src {
				case core.SolvedBySinglePeer:
					m.SolvedBySingle++
				case core.SolvedByMultiPeer:
					m.SolvedByMulti++
				case core.SolvedUncertain:
					m.SolvedUncertain++
				case core.SolvedByServer:
					m.SolvedByServer++
				}
				m.PeerMessages += o.Msgs
				m.PeerBytes += o.Bytes
				m.ServerPageAccesses += o.Pages
			}
			o.Write.Apply(r.caches[p.host])
		}
		r.advance(stepEnd - now)
		now = stepEnd
	}
	m.MeasuredSeconds = cfg.Duration - warmupEnd
	return m
}

// advance moves every mover of the reference world by dt and rebuilds its
// grid.
func (r *refWorld) advance(dt float64) {
	for j, i := range r.moving {
		if r.wp != nil {
			r.pos[i] = r.wp.Advance(int(i), r.pos[i], dt)
		} else {
			r.pos[i] = r.road[j].Advance(dt)
		}
		r.cells[i] = r.grid.CellIndex(r.pos[i])
	}
	r.grid.Build(r.cells)
}

func sameBits(a, b geom.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// TestWorldLayoutEquivalence holds the memory diet to "layout only": a
// mid-size world — a third of the hosts moving, so mover slots and host
// indices diverge; k up to 12 against C_Size 10, so stores exceed capacity;
// thousands of committed queries, many hosts querying repeatedly — must end
// with the same Metrics, the same position of every host bit for bit and the
// same cache entry of every host as the reference world in the old layout,
// in both movement modes and for every movement × query worker count.
func TestWorldLayoutEquivalence(t *testing.T) {
	for _, mode := range []Mode{ModeFreeMovement, ModeRoadNetwork} {
		base := Config{
			AreaWidth: 3000, AreaHeight: 3000,
			NumPOIs: 60, NumHosts: 2000, CacheSize: 10,
			MovePercentage: 0.3, Velocity: 13.4, MaxPause: 10,
			QueriesPerMinute: 900, TxRange: 250,
			KMin: 1, KMax: 12,
			Duration: 240, Mode: mode, Seed: 18,
		}
		if testing.Short() {
			base.Duration = 120
		}
		var (
			want    Metrics
			wantPos []geom.Point
			wantEnt []core.PeerCache // Neighbors nil = no entry
		)
		for _, workers := range []int{1, 2, 4} {
			for _, qworkers := range []int{1, 2, 4} {
				cfg := base
				cfg.Workers, cfg.QueryWorkers = workers, qworkers
				w, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if want.TotalQueries == 0 {
					// The reference has no worker knobs: it runs once per
					// mode, on the first validated configuration.
					ref := newRefWorld(w.cfg, w.roads)
					want = ref.run()
					wantPos = ref.pos
					wantEnt = make([]core.PeerCache, len(ref.caches))
					for i, c := range ref.caches {
						wantEnt[i], _ = c.Entry()
					}
					if want.TotalQueries < 1000 || want.SolvedBySingle == 0 || want.SolvedByMulti == 0 || want.SolvedByServer == 0 {
						t.Fatalf("%v: reference run too thin to compare: %+v", mode, want)
					}
				}
				got := w.Run()
				if got != want {
					t.Fatalf("%v workers=%d qworkers=%d: metrics\n got  %+v\n want %+v", mode, workers, qworkers, got, want)
				}
				stored := 0
				var arena cache.Arena
				for i := range wantPos {
					if !sameBits(w.pos[i], wantPos[i]) {
						t.Fatalf("%v workers=%d qworkers=%d: host %d ends at %v, reference at %v",
							mode, workers, qworkers, i, w.pos[i], wantPos[i])
					}
					arena.Reset()
					e, ok := w.caches.Entry(i, &arena)
					if ok {
						stored++
					}
					if ok != (len(wantEnt[i].Neighbors) > 0) || e.QueryLoc != wantEnt[i].QueryLoc || len(e.Neighbors) != len(wantEnt[i].Neighbors) {
						t.Fatalf("%v workers=%d qworkers=%d: host %d cache entry %v (ok=%v), reference %v",
							mode, workers, qworkers, i, e, ok, wantEnt[i])
					}
					for j, got := range e.Neighbors {
						if ref := wantEnt[i].Neighbors[j]; got.ID != ref.ID || !sameBits(got.Loc, ref.Loc) {
							t.Fatalf("%v workers=%d qworkers=%d: host %d neighbor %d = %v, reference %v",
								mode, workers, qworkers, i, j, e.Neighbors[j], wantEnt[i].Neighbors[j])
						}
					}
				}
				if f := w.Footprint(); f.CacheSlots != stored || f.Movers != len(w.moving) || f.Movers == f.Hosts {
					t.Fatalf("%v: footprint %+v, %d hosts hold an entry", mode, f, stored)
				}
			}
		}
	}
}

// TestNewMatchesReference fences New's construction rule: only the
// drawing goroutine reads the world's stream, in host order, and everything
// the placing workers do depends on a host's own draws alone. Right after
// New, positions, grid cells, the moving list and the grid's buckets must
// equal the reference world's — built host by host on one goroutine — bit
// for bit, and so must every position and cell over a few movement steps,
// which is where a mover's seeded generator and first leg or route show.
// Both modes; worker counts that divide the population evenly, unevenly and
// beyond the movers; a world with fewer movers than workers and one with
// none; one whose drawn movers overrun the presized bound many times over,
// so the movement columns grow while chunks are being placed; and a
// 100,000-host free world whose 7,001-host chunks do not divide it.
func TestNewMatchesReference(t *testing.T) {
	base := Config{
		AreaWidth: 3000, AreaHeight: 3000,
		NumPOIs: 40, NumHosts: 1500, CacheSize: 10,
		MovePercentage: 0.6, Velocity: 13.4, MaxPause: 10,
		QueriesPerMinute: 60, TxRange: 250,
		KMin: 1, KMax: 5,
		Duration: 60, Seed: 33,
	}
	bothModes := []Mode{ModeFreeMovement, ModeRoadNetwork}
	populations := []struct {
		name      string
		modes     []Mode
		hosts     int
		move      float64
		maxMovers int // the drawn mover count must stay below it
		chunk     int // hosts per chunk (0: New's own)
		bound     int // movers the columns are presized for (0: New's own)
	}{
		{"mixed", bothModes, 1500, 0.6, 1500, 0, 0},
		{"few-movers", bothModes, 40, 0.1, 8, 0, 0}, // fewer movers than the widest worker count
		{"no-movers", bothModes, 300, 0, 1, 0, 0},
		{"over-bound", bothModes, 1500, 0.6, 1500, 97, 10},
		{"many-chunks", []Mode{ModeFreeMovement}, 100_000, 0.1, 11_000, 7001, 0},
	}
	for _, pop := range populations {
		for _, mode := range pop.modes {
			for _, workers := range []int{1, 2, 3, 8} {
				cfg := base
				cfg.Mode, cfg.NumHosts, cfg.MovePercentage, cfg.Workers = mode, pop.hosts, pop.move, workers
				name := fmt.Sprintf("%v/%s/workers=%d", mode, pop.name, workers)
				var w *World
				cfg, err := cfg.Validate()
				if err == nil && pop.chunk == 0 {
					w, err = New(cfg)
				} else if err == nil {
					bound := pop.bound
					if bound == 0 {
						bound = expectedMovers(cfg.NumHosts, cfg.MovePercentage)
					}
					w, err = build(cfg, pop.chunk, bound)
				}
				if err != nil {
					t.Fatal(err)
				}
				if n := len(w.moving); n >= pop.maxMovers || pop.move > 0 && n == 0 || pop.bound > 0 && n <= 10*pop.bound {
					t.Fatalf("%s: %d movers of %d hosts", name, n, len(w.pos))
				}
				ref := newRefWorld(w.cfg, w.roads)
				if !slices.Equal(w.moving, ref.moving) {
					t.Fatalf("%s: moving list %v, reference %v", name, w.moving, ref.moving)
				}
				if !slices.Equal(w.grid.Start, ref.grid.Start) || !slices.Equal(w.grid.Entries, ref.grid.Entries) {
					t.Fatalf("%s: grid buckets differ from the reference after New", name)
				}
				// Minute-long steps: legs end, pauses are drawn, routes replan.
				for step := 0; step <= 5; step++ {
					if step > 0 {
						w.advanceMovement(60)
						ref.advance(60)
					}
					for i := range ref.pos {
						if !sameBits(w.pos[i], ref.pos[i]) || w.cells[i] != ref.cells[i] {
							t.Fatalf("%s: after %d steps host %d at %v in cell %d, reference %v in cell %d",
								name, step, i, w.pos[i], w.cells[i], ref.pos[i], ref.cells[i])
						}
					}
				}
			}
		}
	}
}

// TestWorldBytesPerHost is the gate that keeps the diet: on a 200,000-host
// world with one host in ten moving, New must spend exactly 4 B per host on
// caches and 56 B of waypoint state per mover — nothing per parked host —
// and at most 64 B per host in total (the per-host layout spent ≈ 140); and
// after a run the cache storage must be exactly the whole chunks of
// 24 + 4·C_Size-byte slots the hosts that queried need, at most 110 B each.
func TestWorldBytesPerHost(t *testing.T) {
	cfg := Config{
		AreaWidth: 20000, AreaHeight: 20000,
		NumPOIs: 200, NumHosts: 200_000, CacheSize: 20,
		MovePercentage: 0.1, Velocity: 13.4, MaxPause: 10,
		QueriesPerMinute: 6000, TxRange: 200,
		KMin: 3, KMax: 8,
		Duration: 40, Mode: ModeFreeMovement, Seed: 1,
	}
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := w.Footprint()
	hosts, movers := int64(f.Hosts), int64(f.Movers)
	if hosts != 200_000 || movers < hosts/12 || movers > hosts/8 {
		t.Fatalf("population: %d hosts, %d movers", hosts, movers)
	}
	if f.CacheSlots != 0 || f.CacheSlotBytes != 0 || f.CacheIndexBytes != 4*hosts {
		t.Errorf("cache column after New: index %d B, %d slots, %d B of slots; want exactly 4 B/host and nothing else",
			f.CacheIndexBytes, f.CacheSlots, f.CacheSlotBytes)
	}
	if got := w.wp.Bytes(); got != 56*movers {
		t.Errorf("waypoint column %d B for %d movers, want 56 B per mover", got, movers)
	}
	if f.MoverBytes != (56+4)*movers {
		t.Errorf("movement column %d B, want waypoints + moving list = 60 B per mover (%d)", f.MoverBytes, 60*movers)
	}
	if perHost := float64(f.Total()) / float64(hosts); perHost > 64 {
		t.Errorf("%.1f B per host after New, budget 64: %+v", perHost, f)
	}

	w.Run()
	f = w.Footprint()
	if f.CacheSlots < 1000 || f.CacheSlots > f.Hosts/10 {
		t.Fatalf("%d hosts queried; the run should leave a few thousand slots", f.CacheSlots)
	}
	const chunk = 256 // cache.slotsPerChunk
	chunks := int64((f.CacheSlots + chunk - 1) / chunk)
	if want := chunks * chunk * int64(24+4*cfg.CacheSize); f.CacheSlotBytes != want {
		t.Errorf("cache slots: %d B for %d slots in use, want %d chunks of %d slots of 24 + 4·C_Size B = %d",
			f.CacheSlotBytes, f.CacheSlots, chunks, chunk, want)
	}
	perQuerier := float64(f.CacheSlotBytes) / float64(f.CacheSlots)
	t.Logf("%d hosts queried: %d B of cache slots, %.1f B each", f.CacheSlots, f.CacheSlotBytes, perQuerier)
	if perQuerier > 110 {
		t.Errorf("%.1f B of cache slots per host that has queried, budget 110", perQuerier)
	}
	if f.CacheIndexBytes != 4*hosts || f.MoverBytes != 60*movers {
		t.Errorf("fixed columns moved during the run: %+v", f)
	}
}

// TestRoadWorldFootprintMatchesHeap holds Footprint to what a road-mode
// world costs: at Table 4 Los Angeles density — on 10×10 mi, 13,500 hosts,
// 80 % moving — its Total must be within 10 % of the live heap New adds.
// Road movers are nearly all of it: each holds a RoadNetwork, its route and
// a math/rand generator with a 607-word state, ≈ 5.6 KB, where the free
// mode's waypoint slot is 56 B; a column that counted a pointer per road
// mover read about 1 % of the heap.
func TestRoadWorldFootprintMatchesHeap(t *testing.T) {
	const mile = 1609.344
	cfg := Config{
		AreaWidth: 10 * mile, AreaHeight: 10 * mile,
		NumPOIs: 450, NumHosts: 13500, CacheSize: 20,
		MovePercentage: 0.8, Velocity: 13.4112, MaxPause: 30,
		QueriesPerMinute: 900, TxRange: 200,
		KMin: 3, KMax: 7,
		Duration: 60, Mode: ModeRoadNetwork, Seed: 1,
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	f := w.Footprint()
	t.Logf("%d hosts, %d movers: heap +%d B (%.0f B/host), footprint %d B (%.0f B/host), movement %d B",
		f.Hosts, f.Movers, heap, float64(heap)/float64(f.Hosts), f.Total(), float64(f.Total())/float64(f.Hosts), f.MoverBytes)
	if r := float64(f.Total()) / float64(heap); r < 0.9 || r > 1.1 {
		t.Errorf("footprint %d B is %.2f of the heap New added (%d B); want within 10 %%", f.Total(), r, heap)
	}
	runtime.KeepAlive(w)
}
