package cache

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/core"
	"repro/internal/geom"
)

// slotsPerChunk is how many cache slots one storage chunk holds. It trades
// the memory a world pays for its first query (one chunk: 26 KB at
// C_Size 20) against the number of chunk allocations a long run makes.
const slotsPerChunk = 256

// slotHeader is the fixed part of one stored entry.
type slotHeader struct {
	loc  geom.Point // query location of the stored result
	n    int32      // neighbors held; 0 = invalidated
	host int32      // the host owning the slot
}

// chunk is slotsPerChunk slots: headers, and capacity POI indices per slot.
type chunk struct {
	hdr []slotHeader
	idx []int32
}

// Arena is the caller-owned storage Table reads materialise neighbors into.
// The zero value is ready. Reset recycles it once nothing handed out since
// the previous Reset is needed any more — per query in the simulator. When
// it runs out of room it is replaced by a larger array, never extended in
// place, so slices already handed out keep the array they were cut from;
// after a few rounds it is as large as the largest round and a read
// allocates nothing.
type Arena []core.POI

// Reset makes the whole arena available again.
func (a *Arena) Reset() { *a = (*a)[:0] }

// take cuts n POIs off the arena.
func (a *Arena) take(n int) []core.POI {
	used := len(*a)
	if used+n > cap(*a) {
		// The new array keeps used as its length though it copies nothing:
		// that way its capacity covers the whole round, and the next round
		// fits without growing.
		*a = make(Arena, used, 2*(used+n))
	}
	*a = (*a)[:used+n]
	return (*a)[used : used+n : used+n]
}

// Table holds the NN caches of a whole simulated host population in memory
// proportional to the hosts that have ever stored a result, not to the
// population: per host it keeps one int32 — the index of the host's slot,
// −1 until its first Store — and slots (query location, length, capacity
// POI indices) are handed out from chunks in first-store order.
//
// A slot holds indices, not POIs: every neighbor a simulated host can cache
// comes from the world's one static POI set, so the table keeps that slice
// (ID == index) as the only copy of the coordinates and a cached neighbor
// costs 4 bytes instead of 24. Reads materialise the POIs back into a
// caller-owned Arena.
//
// First-store order is the point of the chunks. At the paper's query rates a
// few percent of a large population ever query, scattered uniformly over the
// host index; a NumHosts × capacity slab indexed by host would make each of
// them fault in its own page, whereas consecutive slots pack them into the
// fewest pages possible. Every column — the slot index, the headers, the POI
// indices — is free of pointers, so the garbage collector never scans the
// table.
//
// Store may run on one goroutine at a time and not concurrently with reads;
// any number of goroutines may read (Entry, View), each into its own Arena,
// between stores — the simulator's resolve phase does, its commit phase
// stores.
type Table struct {
	capacity int
	pois     []core.POI // the world's POI set; pois[i].ID == i
	slot     []int32    // per host: slot index + 1, 0 = never stored
	chunks   []chunk
	used     int        // slots handed out; slot s lives in chunks[s/slotsPerChunk]
	scratch  []core.POI // Store's policy buffer
}

// NewTable returns the empty caches of hosts hosts, each holding up to
// capacity POIs (C_Size) drawn from pois, the world's POI set, where a POI's
// ID is its index. pois is retained and must not change. capacity must be
// positive.
func NewTable(hosts, capacity int, pois []core.POI) *Table {
	if capacity <= 0 {
		panic("cache: capacity must be positive")
	}
	if len(pois) > math.MaxInt32 {
		panic("cache: POI set too large for int32 indices")
	}
	return &Table{capacity: capacity, pois: pois, slot: make([]int32, hosts)}
}

// Slots returns how many hosts have ever stored a non-empty result — the
// slots handed out so far.
func (t *Table) Slots() int { return t.used }

// Held returns how many hosts hold an entry now and how many neighbors
// those entries hold in total: what materialising every entry takes. One
// pass over the slot headers.
func (t *Table) Held() (entries, neighbors int) {
	for s := int32(0); int(s) < t.used; s++ {
		if h, _ := t.at(s); h.n > 0 {
			entries++
			neighbors += int(h.n)
		}
	}
	return entries, neighbors
}

// Bytes returns the table's memory by column, computed from slice lengths:
// the per-host slot index, and the slot storage allocated so far (whole
// chunks).
func (t *Table) Bytes() (index, slots int64) {
	const i32 = int64(unsafe.Sizeof(int32(0)))
	index = int64(len(t.slot)) * i32
	for _, c := range t.chunks {
		slots += int64(len(c.hdr))*int64(unsafe.Sizeof(slotHeader{})) + int64(len(c.idx))*i32
	}
	return index, slots
}

// at returns slot s's header and its capacity-long index storage.
func (t *Table) at(s int32) (*slotHeader, []int32) {
	c := &t.chunks[s/slotsPerChunk]
	i := int(s % slotsPerChunk)
	return &c.hdr[i], c.idx[i*t.capacity : (i+1)*t.capacity : (i+1)*t.capacity]
}

// Entry returns host's shareable cached result, its neighbors materialised
// into arena. ok is false when the host holds none (it never stored, or its
// last store was empty).
//
// The entry is a copy: it stays intact until arena is Reset, whatever is
// stored to the table in between.
func (t *Table) Entry(host int, arena *Arena) (core.PeerCache, bool) {
	s := t.slotOf(host)
	if s < 0 {
		return core.PeerCache{}, false
	}
	h, idx := t.at(s)
	if h.n == 0 {
		return core.PeerCache{}, false
	}
	ns := arena.take(int(h.n))
	for i, id := range idx[:h.n] {
		ns[i] = t.pois[id]
	}
	return core.PeerCache{QueryLoc: h.loc, Neighbors: ns}, true
}

// View returns host's cache as a Cache value, so code written against one
// host's *Cache (client.Request.Cache) reads a table host without the table
// keeping a Cache per host. The view is a read-only copy under Entry's
// lifetime rule; a Store on it writes to private storage, not to the table.
func (t *Table) View(host int, arena *Arena) Cache {
	e, _ := t.Entry(host, arena)
	return Cache{capacity: t.capacity, entry: e}
}

// Store replaces host's entry with the result of its most recent query,
// under the policy of Cache.Store: at most Capacity of the nearest POIs are
// kept in ascending distance order, and an empty set invalidates the entry.
// certain is copied, never retained or reordered. A host's first non-empty
// store claims the next free slot; later stores overwrite that slot in
// place.
//
// Every kept POI must be the table's own — ID in range, coordinates
// bit-equal to pois[ID]. Store panics otherwise: the slot keeps only the ID,
// so a foreign POI would read back with different coordinates and silently
// change an answer a peer certifies from it.
func (t *Table) Store(host int, queryLoc geom.Point, certain []core.POI) {
	s := t.slotOf(host)
	if s < 0 {
		if len(certain) == 0 {
			return // nothing to invalidate, and no reason to claim a slot
		}
		s = t.claim(host)
	}
	t.scratch = keep(t.scratch, t.capacity, queryLoc, certain)
	h, idx := t.at(s)
	for i, p := range t.scratch {
		if p.ID < 0 || p.ID >= int64(len(t.pois)) || !sameBits(t.pois[p.ID], p) {
			panic(fmt.Sprintf("cache: host %d stores %v, which is not in the table's POI set", host, p))
		}
		idx[i] = int32(p.ID)
	}
	h.loc = queryLoc
	h.n = int32(len(t.scratch))
}

// sameBits reports whether a and b are the same POI to the last bit; unlike
// ==, it tells −0 from +0.
func sameBits(a, b core.POI) bool {
	return a.ID == b.ID &&
		math.Float64bits(a.Loc.X) == math.Float64bits(b.Loc.X) &&
		math.Float64bits(a.Loc.Y) == math.Float64bits(b.Loc.Y)
}

// slotOf returns host's slot index, −1 if it never stored. The column holds
// the index + 1, so a freshly allocated (zeroed) table is the empty one.
func (t *Table) slotOf(host int) int32 { return t.slot[host] - 1 }

// claim hands host the next free slot, allocating a chunk when the last one
// is full.
func (t *Table) claim(host int) int32 {
	if t.used == len(t.chunks)*slotsPerChunk {
		t.chunks = append(t.chunks, chunk{
			hdr: make([]slotHeader, slotsPerChunk),
			idx: make([]int32, slotsPerChunk*t.capacity),
		})
	}
	s := int32(t.used)
	t.used++
	t.slot[host] = s + 1
	h, _ := t.at(s)
	h.host = int32(host)
	return s
}
