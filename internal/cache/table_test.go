package cache

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// refCache is the cache as it was laid out before Table existed — one
// header per host carrying its own capacity copy, a valid flag and a slice
// header, every Store a fresh make + reflect sort.Slice. It survives here as
// the behaviour oracle for both Cache and Table.
type refCache struct {
	capacity int
	entry    core.PeerCache
	valid    bool
}

func (c *refCache) Store(queryLoc geom.Point, certain []core.POI) {
	if len(certain) == 0 {
		c.valid = false
		c.entry = core.PeerCache{}
		return
	}
	ns := make([]core.POI, len(certain))
	copy(ns, certain)
	sort.Slice(ns, func(i, j int) bool {
		return queryLoc.Dist2(ns[i].Loc) < queryLoc.Dist2(ns[j].Loc)
	})
	if len(ns) > c.capacity {
		ns = ns[:c.capacity]
	}
	c.entry = core.PeerCache{QueryLoc: queryLoc, Neighbors: ns}
	c.valid = true
}

func (c *refCache) Entry() (core.PeerCache, bool) {
	if !c.valid {
		return core.PeerCache{}, false
	}
	return c.entry, true
}

// sameEntry compares two Entry results field for field; neighbors must agree
// POI for POI, IDs and coordinate bits.
func sameEntry(a core.PeerCache, aok bool, b core.PeerCache, bok bool) error {
	if aok != bok {
		return fmt.Errorf("ok = %v, want %v", aok, bok)
	}
	if a.QueryLoc != b.QueryLoc {
		return fmt.Errorf("query location %v, want %v", a.QueryLoc, b.QueryLoc)
	}
	if len(a.Neighbors) != len(b.Neighbors) {
		return fmt.Errorf("%d neighbors, want %d", len(a.Neighbors), len(b.Neighbors))
	}
	for i := range a.Neighbors {
		if !sameBits(a.Neighbors[i], b.Neighbors[i]) {
			return fmt.Errorf("neighbor %d = %v, want %v", i, a.Neighbors[i], b.Neighbors[i])
		}
	}
	return nil
}

// checkInvariants verifies the table's structure: host→slot and slot→host
// are inverse bijections over exactly the slots handed out, chunks cover
// them with no spare chunk, every slot holds at most capacity in-range POI
// indices in ascending distance, Held counts what the headers hold, and a
// never-stored host reads as empty.
func checkInvariants(t *testing.T, tb *Table) {
	t.Helper()
	var arena Arena
	owned := 0
	for host, s := range tb.slot {
		if s < 0 {
			if s != -1 {
				t.Fatalf("host %d: slot index %d", host, s)
			}
			if _, ok := tb.Entry(host, &arena); ok {
				t.Fatalf("host %d never stored but has an entry", host)
			}
			continue
		}
		owned++
		if int(s) >= tb.used {
			t.Fatalf("host %d: slot %d beyond the %d handed out", host, s, tb.used)
		}
		if h, _ := tb.at(s); int(h.host) != host {
			t.Fatalf("host %d owns slot %d, whose header names host %d", host, s, h.host)
		}
	}
	if owned != tb.used || tb.Slots() != tb.used {
		t.Fatalf("%d hosts own a slot, %d slots handed out (Slots() = %d)", owned, tb.used, tb.Slots())
	}
	if want := (tb.used + slotsPerChunk - 1) / slotsPerChunk; len(tb.chunks) != want {
		t.Fatalf("%d chunks for %d slots, want %d", len(tb.chunks), tb.used, want)
	}
	entries, neighbors := 0, 0
	for s := int32(0); int(s) < tb.used; s++ {
		h, idx := tb.at(s)
		if tb.slot[h.host] != s {
			t.Fatalf("slot %d names host %d, whose slot is %d", s, h.host, tb.slot[h.host])
		}
		if h.n < 0 || int(h.n) > tb.capacity || len(idx) != tb.capacity || cap(idx) != tb.capacity {
			t.Fatalf("slot %d: n=%d len=%d cap=%d, capacity %d", s, h.n, len(idx), cap(idx), tb.capacity)
		}
		for i, id := range idx[:h.n] {
			if id < 0 || int(id) >= len(tb.pois) {
				t.Fatalf("slot %d (host %d): neighbor %d is POI index %d of %d", s, h.host, i, id, len(tb.pois))
			}
			if i > 0 && h.loc.Dist2(tb.pois[idx[i-1]].Loc) > h.loc.Dist2(tb.pois[id].Loc) {
				t.Fatalf("slot %d (host %d): neighbors %d,%d not ascending", s, h.host, i-1, i)
			}
		}
		if h.n > 0 {
			entries++
			neighbors += int(h.n)
		}
	}
	if e, n := tb.Held(); e != entries || n != neighbors {
		t.Fatalf("Held() = %d entries, %d neighbors; the headers hold %d, %d", e, n, entries, neighbors)
	}
	idx, slots := tb.Bytes()
	if idx != int64(4*len(tb.slot)) {
		t.Fatalf("index column %d B for %d hosts", idx, len(tb.slot))
	}
	if want := int64(len(tb.chunks)) * slotsPerChunk * int64(24+4*tb.capacity); slots != want {
		t.Fatalf("slot storage %d B, want %d", slots, want)
	}
}

// latticeWorld is a POI set as Table takes it (ID == index): n POIs dealt
// over a 9 × 9 integer lattice, several per point, so distance ties — where
// an unstable sort could diverge from the oracle's — are the norm.
func latticeWorld(rng *rand.Rand, n int) []core.POI {
	out := make([]core.POI, n)
	for i := range out {
		out[i] = core.POI{ID: int64(i), Loc: geom.Pt(float64(rng.Intn(9)), float64(rng.Intn(9)))}
	}
	return out
}

// randomPOIs draws n distinct POIs of world, in random order.
func randomPOIs(rng *rand.Rand, world []core.POI, n int) []core.POI {
	out := make([]core.POI, n)
	for i, j := range rng.Perm(len(world))[:n] {
		out[i] = world[j]
	}
	return out
}

// TestTableChurn drives a Table, one Cache per host, and the old-layout
// refCache per host with the same random operation stream — stores at or
// below capacity, above capacity, empty stores (to stored and never-stored
// hosts), bursts of stores to one host, reads of never-stored hosts — over
// enough hosts to cross several chunk boundaries. After every operation the
// structural invariants must hold and all three must agree, POI for POI, on
// the entry of every host touched so far.
func TestTableChurn(t *testing.T) {
	const (
		hosts    = 1500
		capacity = 6
		ops      = 2500
	)
	rng := rand.New(rand.NewSource(18))
	world := latticeWorld(rng, 400)
	tb := NewTable(hosts, capacity, world)
	per := make([]*Cache, hosts)
	ref := make([]*refCache, hosts)
	for i := range per {
		per[i] = New(capacity)
		ref[i] = &refCache{capacity: capacity}
	}
	checkInvariants(t, tb)

	var touched []int
	isTouched := make([]bool, hosts)
	store := func(host, n int) {
		q := geom.Pt(float64(rng.Intn(9)), float64(rng.Intn(9)))
		certain := randomPOIs(rng, world, n)
		before := append([]core.POI(nil), certain...)
		tb.Store(host, q, certain)
		per[host].Store(q, certain)
		ref[host].Store(q, certain)
		for i := range certain {
			if certain[i] != before[i] {
				t.Fatalf("Store reordered its input at %d", i)
			}
		}
		if !isTouched[host] {
			isTouched[host] = true
			touched = append(touched, host)
		}
	}
	var arena Arena
	verify := func(op int, what string) {
		t.Helper()
		checkInvariants(t, tb)
		for _, h := range touched {
			arena.Reset()
			want, wok := ref[h].Entry()
			got, ok := tb.Entry(h, &arena)
			if err := sameEntry(got, ok, want, wok); err != nil {
				t.Fatalf("op %d (%s): table host %d: %v", op, what, h, err)
			}
			got, ok = per[h].Entry()
			if err := sameEntry(got, ok, want, wok); err != nil {
				t.Fatalf("op %d (%s): per-host cache %d: %v", op, what, h, err)
			}
			v := tb.View(h, &arena)
			got, ok = v.Entry()
			if err := sameEntry(got, ok, want, wok); err != nil || v.Capacity() != capacity {
				t.Fatalf("op %d (%s): view of host %d: %v (capacity %d)", op, what, h, err, v.Capacity())
			}
		}
	}

	for op := 0; op < ops; op++ {
		host := rng.Intn(hosts)
		var what string
		switch r := rng.Intn(10); {
		case r < 4:
			what = "store<=capacity"
			store(host, 1+rng.Intn(capacity))
		case r < 6:
			what = "store>capacity"
			store(host, capacity+1+rng.Intn(3*capacity))
		case r < 7:
			what = "empty store"
			store(host, 0)
		case r < 9:
			what = "burst to one host"
			for i, n := 0, 2+rng.Intn(4); i < n; i++ {
				store(host, rng.Intn(2*capacity+1))
			}
		default:
			what = "read never-stored"
			if _, ok := tb.Entry(host, &arena); ok != (tb.slot[host] >= 0 && ref[host].valid) {
				t.Fatalf("op %d: Entry(%d) ok=%v on a host with slot %d", op, host, ok, tb.slot[host])
			}
			if v := tb.View(host, &arena); v.Capacity() != capacity {
				t.Fatalf("op %d: view capacity %d", op, v.Capacity())
			}
		}
		verify(op, what)
	}
	if len(tb.chunks) < 3 {
		t.Fatalf("churn used %d slots in %d chunks; it must cross chunk boundaries", tb.used, len(tb.chunks))
	}
}

// Slots are handed out in first-store order — memory follows the hosts that
// query, wherever they sit in the host index — and an empty store to a host
// that never stored claims nothing.
func TestTableFirstStoreOrder(t *testing.T) {
	world := []core.POI{{ID: 0, Loc: geom.Pt(1, 0)}}
	tb := NewTable(1_000_000, 4, world)
	if idx, slots := tb.Bytes(); idx != 4_000_000 || slots != 0 || tb.Slots() != 0 {
		t.Fatalf("fresh table: index %d B, slots %d B, %d in use", idx, slots, tb.Slots())
	}
	q := geom.Pt(0, 0)
	order := []int{999_999, 3, 500_000, 42}
	for want, host := range order {
		tb.Store(host, q, nil) // never stored: no slot
		if tb.slot[host] != -1 {
			t.Fatalf("empty store gave host %d slot %d", host, tb.slot[host])
		}
		tb.Store(host, q, world)
		if int(tb.slot[host]) != want {
			t.Fatalf("host %d got slot %d, want %d", host, tb.slot[host], want)
		}
	}
	tb.Store(3, q, nil) // invalidates, keeps the slot
	var arena Arena
	if _, ok := tb.Entry(3, &arena); ok || tb.slot[3] != 1 || tb.Slots() != 4 {
		t.Fatalf("empty store to a stored host: ok=%v slot=%d slots=%d", ok, tb.slot[3], tb.Slots())
	}
	checkInvariants(t, tb)
}

// A view reads the table; storing to it must not write through.
func TestViewStoreDetaches(t *testing.T) {
	world := []core.POI{{ID: 0, Loc: geom.Pt(2, 0)}, {ID: 1, Loc: geom.Pt(1, 0)}}
	tb := NewTable(4, 3, world)
	tb.Store(2, geom.Pt(0, 0), world)
	var arena Arena
	v := tb.View(2, &arena)
	v.Store(geom.Pt(9, 9), pois(geom.Pt(9, 8))) // a view's own store takes any POI
	if e, ok := v.Entry(); !ok || e.QueryLoc != geom.Pt(9, 9) || len(e.Neighbors) != 1 {
		t.Fatalf("view after its own store: %+v ok=%v", e, ok)
	}
	e, ok := tb.Entry(2, &arena)
	if !ok || e.QueryLoc != geom.Pt(0, 0) || len(e.Neighbors) != 2 || e.Neighbors[0].Loc.X != 1 {
		t.Fatalf("store on a view reached the table: %+v ok=%v", e, ok)
	}
}

// The two containers' entry lifetimes. A Cache entry aliases storage, valid
// "until the next Store": the memory behind the old entry must then hold the
// new result in full — overwritten, not half-written. A Table entry is a copy
// in the caller's arena: no store, to its host or another, may reach it.
func TestEntryLifetime(t *testing.T) {
	world := []core.POI{
		{ID: 0, Loc: geom.Pt(3, 0)}, {ID: 1, Loc: geom.Pt(1, 0)}, {ID: 2, Loc: geom.Pt(2, 0)},
		{ID: 3, Loc: geom.Pt(12, 0)}, {ID: 4, Loc: geom.Pt(11, 0)},
	}
	tb := NewTable(8, 3, world)
	c := New(3)
	q1, q2 := geom.Pt(0, 0), geom.Pt(10, 0)
	first, second := world[:3], world[3:]

	tb.Store(5, q1, first)
	tb.Store(6, q1, first)
	c.Store(q1, first)
	var arena Arena
	held, _ := tb.Entry(5, &arena)
	other, _ := tb.Entry(6, &arena)
	heldC, _ := c.Entry()

	tb.Store(5, q2, second)
	c.Store(q2, second)
	if got := heldC.Neighbors[:2]; got[0].ID != 4 || got[1].ID != 3 {
		t.Errorf("cache: memory behind the old entry holds %v, want the new result in place", got)
	}
	asRead := core.PeerCache{QueryLoc: q1, Neighbors: []core.POI{world[1], world[2], world[0]}}
	for _, old := range []core.PeerCache{held, other} {
		if err := sameEntry(old, true, asRead, true); err != nil {
			t.Errorf("a store to host 5 changed an entry read before it: %v", err)
		}
	}
	if now, ok := tb.Entry(5, &arena); !ok || now.QueryLoc != q2 || len(now.Neighbors) != 2 || now.Neighbors[0].ID != 4 {
		t.Errorf("host 5 after its second store: %+v ok=%v", now, ok)
	}
}

// A slot keeps only POI indices, so Store must refuse — loudly — any POI
// that would read back different from how it was stored.
func TestStoreForeignPOIPanics(t *testing.T) {
	world := []core.POI{{ID: 0, Loc: geom.Pt(1, 0)}, {ID: 1, Loc: geom.Pt(2, 0)}, {ID: 2, Loc: geom.Pt(0, 0)}}
	for name, foreign := range map[string]core.POI{
		"ID past the set":      {ID: 3, Loc: geom.Pt(1, 0)},
		"negative ID":          {ID: -1, Loc: geom.Pt(1, 0)},
		"ID beyond int32":      {ID: 1 << 32, Loc: geom.Pt(1, 0)},
		"other coordinates":    {ID: 1, Loc: geom.Pt(2, 1e-9)},
		"another POI's place":  {ID: 1, Loc: geom.Pt(1, 0)},
		"negative zero for +0": {ID: 2, Loc: geom.Pt(0, math.Copysign(0, -1))},
	} {
		t.Run(name, func(t *testing.T) {
			tb := NewTable(4, 2, world)
			tb.Store(1, geom.Pt(0, 0), world[:2])
			defer func() {
				if recover() == nil {
					t.Errorf("Store accepted %v", foreign)
				}
			}()
			tb.Store(1, geom.Pt(0, 0), []core.POI{world[0], foreign})
		})
	}
	// Policy first, identity second: a foreign POI that capacity trims away
	// is never written, so it is not an error.
	tb := NewTable(4, 2, world)
	tb.Store(1, geom.Pt(0, 0), []core.POI{world[0], world[2], {ID: 9, Loc: geom.Pt(50, 50)}})
	var arena Arena
	if e, ok := tb.Entry(1, &arena); !ok || len(e.Neighbors) != 2 || e.Neighbors[0] != world[2] || e.Neighbors[1] != world[0] {
		t.Errorf("entry after a store whose foreign POI was trimmed: %+v ok=%v", e, ok)
	}
}

// An arena that runs out of room is replaced, not extended: entries read
// before the growth keep their memory and their content, and once the arena
// has seen a full round it serves the next one without allocating.
func TestArenaGrowthKeepsSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	world := latticeWorld(rng, 64)
	const hosts, capacity = 200, 8
	tb := NewTable(hosts, capacity, world)
	want := make([]core.PeerCache, hosts)
	for h := range want {
		q := geom.Pt(float64(rng.Intn(9)), float64(rng.Intn(9)))
		certain := randomPOIs(rng, world, 1+rng.Intn(capacity))
		tb.Store(h, q, certain)
		want[h] = core.NewPeerCache(q, certain)
	}
	var arena Arena
	got := make([]core.PeerCache, hosts)
	grown := 0
	readAll := func() {
		arena.Reset()
		for h := range got {
			before := cap(arena)
			got[h], _ = tb.Entry(h, &arena)
			if cap(arena) != before {
				grown++
			}
		}
	}
	readAll()
	if grown < 3 {
		t.Fatalf("the arena grew %d times while reading %d entries; the test needs several growths", grown, hosts)
	}
	for h := range got {
		if err := sameEntry(got[h], true, want[h], true); err != nil {
			t.Fatalf("host %d, read before a growth: %v", h, err)
		}
	}
	if allocs := testing.AllocsPerRun(20, readAll); allocs != 0 {
		t.Errorf("a warm arena allocates %v objects per round of reads, want 0", allocs)
	}
}

// The point of storing in place: a committed query allocates nothing once
// its host owns a slot and the policy scratch has grown to the largest
// result.
func TestStoreAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	world := latticeWorld(rng, 100)
	q := geom.Pt(0, 0)
	small, big := randomPOIs(rng, world, 20), randomPOIs(rng, world, 50)
	tb := NewTable(16, 20, world)
	c := New(20)
	warm := func() {
		tb.Store(7, q, big)
		tb.Store(7, q, small)
		c.Store(q, big)
		c.Store(q, small)
	}
	warm()
	if allocs := testing.AllocsPerRun(50, warm); allocs != 0 {
		t.Errorf("in-place stores allocate %v objects per round, want 0", allocs)
	}
}
