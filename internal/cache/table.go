package cache

import (
	"unsafe"

	"repro/internal/core"
	"repro/internal/geom"
)

// slotsPerChunk is how many cache slots one storage chunk holds. It trades
// the memory a world pays for its first query (one chunk: 129 KB at
// C_Size 20) against the number of chunk allocations a long run makes.
const slotsPerChunk = 256

// slotHeader is the fixed part of one stored entry.
type slotHeader struct {
	loc  geom.Point // query location of the stored result
	n    int32      // neighbors held; 0 = invalidated
	host int32      // the host owning the slot
}

// chunk is slotsPerChunk slots: headers, and capacity POIs per slot.
type chunk struct {
	hdr  []slotHeader
	pois []core.POI
}

// Table holds the NN caches of a whole simulated host population in memory
// proportional to the hosts that have ever stored a result, not to the
// population: per host it keeps one int32 — the index of the host's slot,
// −1 until its first Store — and slots (query location, length, capacity
// POIs) are handed out from chunks in first-store order.
//
// First-store order is the point. At the paper's query rates a few percent
// of a large population ever query, scattered uniformly over the host index;
// a NumHosts × capacity slab indexed by host would make each of them fault
// in its own page (40,000 queriers of a million hosts touch ~140 MB of a
// 480 MB slab), whereas consecutive slots pack them into the fewest pages
// possible. Every column — the index, the headers, the POIs — is free of
// pointers, so the garbage collector never scans the table.
//
// Store may run on one goroutine at a time and not concurrently with reads;
// any number of goroutines may read (Entry, View) between stores — the
// simulator's resolve phase does, its commit phase stores.
type Table struct {
	capacity int
	slot     []int32 // per host: slot index, −1 = never stored
	chunks   []chunk
	used     int        // slots handed out; slot s lives in chunks[s/slotsPerChunk]
	spill    []core.POI // sort buffer for stores larger than capacity
}

// NewTable returns the empty caches of hosts hosts, each holding up to
// capacity POIs (C_Size). capacity must be positive.
func NewTable(hosts, capacity int) *Table {
	if capacity <= 0 {
		panic("cache: capacity must be positive")
	}
	t := &Table{capacity: capacity, slot: make([]int32, hosts)}
	for i := range t.slot {
		t.slot[i] = -1
	}
	return t
}

// Slots returns how many hosts have ever stored a non-empty result — the
// slots handed out so far.
func (t *Table) Slots() int { return t.used }

// Bytes returns the table's memory by column, computed from slice lengths:
// the per-host slot index, and the slot storage allocated so far (whole
// chunks).
func (t *Table) Bytes() (index, slots int64) {
	index = int64(len(t.slot)) * int64(unsafe.Sizeof(int32(0)))
	for _, c := range t.chunks {
		slots += int64(len(c.hdr))*int64(unsafe.Sizeof(slotHeader{})) +
			int64(len(c.pois))*int64(unsafe.Sizeof(core.POI{}))
	}
	return index, slots
}

// at returns slot s's header and its capacity-long POI storage.
func (t *Table) at(s int32) (*slotHeader, []core.POI) {
	c := &t.chunks[s/slotsPerChunk]
	i := int(s % slotsPerChunk)
	return &c.hdr[i], c.pois[i*t.capacity : (i+1)*t.capacity : (i+1)*t.capacity]
}

// Entry returns host's shareable cached result. ok is false when the host
// holds none (it never stored, or its last store was empty).
//
// The entry's Neighbors alias the host's slot: they are valid until the next
// Store for that same host, which overwrites them in place — stores for
// other hosts never move or touch them. Copy the neighbors to keep an entry
// longer.
func (t *Table) Entry(host int) (core.PeerCache, bool) {
	s := t.slot[host]
	if s < 0 {
		return core.PeerCache{}, false
	}
	h, pois := t.at(s)
	if h.n == 0 {
		return core.PeerCache{}, false
	}
	return core.PeerCache{QueryLoc: h.loc, Neighbors: pois[:h.n]}, true
}

// View returns host's cache as a Cache value, so code written against one
// host's *Cache (client.Request.Cache) reads a table host without the table
// keeping a Cache per host. The view is a read-only snapshot under Entry's
// lifetime rule; a Store on it writes to private storage, not to the table.
func (t *Table) View(host int) Cache {
	e, _ := t.Entry(host)
	return Cache{capacity: t.capacity, entry: e}
}

// Store replaces host's entry with the result of its most recent query,
// under the policy of Cache.Store: at most Capacity of the nearest POIs are
// kept in ascending distance order, and an empty set invalidates the entry.
// certain is copied, never retained or reordered. A host's first non-empty
// store claims the next free slot; later stores overwrite that slot in
// place.
func (t *Table) Store(host int, queryLoc geom.Point, certain []core.POI) {
	s := t.slot[host]
	if s < 0 {
		if len(certain) == 0 {
			return // nothing to invalidate, and no reason to claim a slot
		}
		s = t.claim(host)
	}
	h, pois := t.at(s)
	h.loc = queryLoc
	if len(certain) <= t.capacity {
		h.n = int32(len(keep(pois, t.capacity, queryLoc, certain)))
		return
	}
	// The nearest capacity of a larger set: order all of it aside first.
	t.spill = keep(t.spill, t.capacity, queryLoc, certain)
	h.n = int32(copy(pois, t.spill))
}

// claim hands host the next free slot, allocating a chunk when the last one
// is full.
func (t *Table) claim(host int) int32 {
	if t.used == len(t.chunks)*slotsPerChunk {
		t.chunks = append(t.chunks, chunk{
			hdr:  make([]slotHeader, slotsPerChunk),
			pois: make([]core.POI, slotsPerChunk*t.capacity),
		})
	}
	s := int32(t.used)
	t.used++
	t.slot[host] = s
	h, _ := t.at(s)
	h.host = int32(host)
	return s
}
