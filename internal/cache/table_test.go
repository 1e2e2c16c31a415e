package cache

import (
	"fmt"
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

// sameEntry compares two Entry results field for field.
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
		if a.Neighbors[i] != b.Neighbors[i] {
			return fmt.Errorf("neighbor %d = %v, want %v", i, a.Neighbors[i], b.Neighbors[i])
		}
	}
	return nil
}

// checkInvariants verifies the table's structure: host→slot and slot→host
// are inverse bijections over exactly the slots handed out, chunks cover
// them with no spare chunk, every slot holds at most capacity neighbors in
// ascending distance, and a never-stored host reads as empty.
func checkInvariants(t *testing.T, tb *Table) {
	t.Helper()
	owned := 0
	for host, s := range tb.slot {
		if s < 0 {
			if s != -1 {
				t.Fatalf("host %d: slot index %d", host, s)
			}
			if _, ok := tb.Entry(host); ok {
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
	for s := int32(0); int(s) < tb.used; s++ {
		h, pois := tb.at(s)
		if tb.slot[h.host] != s {
			t.Fatalf("slot %d names host %d, whose slot is %d", s, h.host, tb.slot[h.host])
		}
		if h.n < 0 || int(h.n) > tb.capacity || len(pois) != tb.capacity || cap(pois) != tb.capacity {
			t.Fatalf("slot %d: n=%d len=%d cap=%d, capacity %d", s, h.n, len(pois), cap(pois), tb.capacity)
		}
		for i := 1; i < int(h.n); i++ {
			if h.loc.Dist2(pois[i-1].Loc) > h.loc.Dist2(pois[i].Loc) {
				t.Fatalf("slot %d (host %d): neighbors %d,%d not ascending", s, h.host, i-1, i)
			}
		}
	}
	idx, slots := tb.Bytes()
	if idx != int64(4*len(tb.slot)) {
		t.Fatalf("index column %d B for %d hosts", idx, len(tb.slot))
	}
	if want := int64(len(tb.chunks)) * slotsPerChunk * int64(24+24*tb.capacity); slots != want {
		t.Fatalf("slot storage %d B, want %d", slots, want)
	}
}

// randomPOIs draws n POIs on a coarse lattice around q, so distance ties —
// where an unstable sort could diverge from the oracle's — are the norm.
func randomPOIs(rng *rand.Rand, q geom.Point, n int) []core.POI {
	out := make([]core.POI, n)
	for i := range out {
		out[i] = core.POI{
			ID:  rng.Int63n(1 << 40),
			Loc: geom.Pt(q.X+float64(rng.Intn(9)-4), q.Y+float64(rng.Intn(9)-4)),
		}
	}
	return out
}

// TestTableChurn drives a Table, one Cache per host, and the old-layout
// refCache per host with the same random operation stream — stores at or
// below capacity, above capacity, empty stores (to stored and never-stored
// hosts), bursts of stores to one host, reads of never-stored hosts — over
// enough hosts to cross several chunk boundaries. After every operation the
// structural invariants must hold and all three must agree on the entry of
// every host touched so far.
func TestTableChurn(t *testing.T) {
	const (
		hosts    = 1500
		capacity = 6
		ops      = 2500
	)
	rng := rand.New(rand.NewSource(18))
	tb := NewTable(hosts, capacity)
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
		q := geom.Pt(float64(rng.Intn(100)), float64(rng.Intn(100)))
		certain := randomPOIs(rng, q, n)
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
	verify := func(op int, what string) {
		t.Helper()
		checkInvariants(t, tb)
		for _, h := range touched {
			want, wok := ref[h].Entry()
			got, ok := tb.Entry(h)
			if err := sameEntry(got, ok, want, wok); err != nil {
				t.Fatalf("op %d (%s): table host %d: %v", op, what, h, err)
			}
			got, ok = per[h].Entry()
			if err := sameEntry(got, ok, want, wok); err != nil {
				t.Fatalf("op %d (%s): per-host cache %d: %v", op, what, h, err)
			}
			v := tb.View(h)
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
			if _, ok := tb.Entry(host); ok != (tb.slot[host] >= 0 && ref[host].valid) {
				t.Fatalf("op %d: Entry(%d) ok=%v on a host with slot %d", op, host, ok, tb.slot[host])
			}
			if v := tb.View(host); v.Capacity() != capacity {
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
	tb := NewTable(1_000_000, 4)
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
		tb.Store(host, q, pois(geom.Pt(1, 0)))
		if int(tb.slot[host]) != want {
			t.Fatalf("host %d got slot %d, want %d", host, tb.slot[host], want)
		}
	}
	tb.Store(3, q, nil) // invalidates, keeps the slot
	if _, ok := tb.Entry(3); ok || tb.slot[3] != 1 || tb.Slots() != 4 {
		t.Fatalf("empty store to a stored host: ok=%v slot=%d slots=%d", ok, tb.slot[3], tb.Slots())
	}
	checkInvariants(t, tb)
}

// A view reads the table; storing to it must not write through.
func TestViewStoreDetaches(t *testing.T) {
	tb := NewTable(4, 3)
	tb.Store(2, geom.Pt(0, 0), pois(geom.Pt(2, 0), geom.Pt(1, 0)))
	v := tb.View(2)
	v.Store(geom.Pt(9, 9), pois(geom.Pt(9, 8)))
	if e, ok := v.Entry(); !ok || e.QueryLoc != geom.Pt(9, 9) || len(e.Neighbors) != 1 {
		t.Fatalf("view after its own store: %+v ok=%v", e, ok)
	}
	e, ok := tb.Entry(2)
	if !ok || e.QueryLoc != geom.Pt(0, 0) || len(e.Neighbors) != 2 || e.Neighbors[0].Loc.X != 1 {
		t.Fatalf("store on a view reached the table: %+v ok=%v", e, ok)
	}
}

// Entry aliases storage: the documented lifetime is "until this host's next
// Store". The previous entry's memory must then hold the new result in full
// — overwritten, not half-written — and other hosts' entries must not move.
func TestEntryLifetime(t *testing.T) {
	tb := NewTable(8, 3)
	c := New(3)
	q1, q2 := geom.Pt(0, 0), geom.Pt(10, 0)
	first := pois(geom.Pt(3, 0), geom.Pt(1, 0), geom.Pt(2, 0))
	second := []core.POI{{ID: 7, Loc: geom.Pt(12, 0)}, {ID: 8, Loc: geom.Pt(11, 0)}}

	tb.Store(5, q1, first)
	tb.Store(6, q1, first)
	c.Store(q1, first)
	held, _ := tb.Entry(5)
	other, _ := tb.Entry(6)
	otherCopy := append([]core.POI(nil), other.Neighbors...)
	heldC, _ := c.Entry()

	tb.Store(5, q2, second)
	c.Store(q2, second)
	for i, old := range []core.PeerCache{held, heldC} {
		if got := old.Neighbors[:2]; got[0].ID != 8 || got[1].ID != 7 {
			t.Errorf("%s: memory behind the old entry holds %v, want the new result in place",
				[]string{"table", "cache"}[i], got)
		}
	}
	for i := range otherCopy {
		if other.Neighbors[i] != otherCopy[i] {
			t.Errorf("a store to host 5 changed host 6's entry at %d", i)
		}
	}
}

// The point of storing in place: a committed query allocates nothing once
// its host owns a slot (and, for oversized results, once the spill buffer
// has grown).
func TestStoreAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := geom.Pt(0, 0)
	small, big := randomPOIs(rng, q, 20), randomPOIs(rng, q, 50)
	tb := NewTable(16, 20)
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
