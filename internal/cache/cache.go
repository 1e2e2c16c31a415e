// Package cache implements the mobile-host NN result cache of the paper's
// simulator (§4.1), with its two management policies:
//
//  1. a host stores only the query location and the certain nearest
//     neighbors of its most recent query, and
//  2. when a kNN query must be sent to the server, the host queries for as
//     many NNs as its cache capacity allows, so the cache refills to
//     capacity on every server round trip.
//
// The cached entry is exactly what the host shares with peers as a
// core.PeerCache.
//
// Two containers hold entries: Cache is one host's cache (the networked
// client owns one), Table is a whole simulated population's (table.go). Both
// store through the same policy function, keep, so policy 1 has one
// implementation.
package cache

import (
	"repro/internal/core"
	"repro/internal/geom"
)

// keep is cache policy 1, the single implementation behind Cache.Store and
// Table.Store: copy certain into buf's backing array, order it by ascending
// distance to queryLoc, and keep at most capacity of the nearest. An empty
// certain set keeps nothing, which both containers read as "no entry". It
// allocates only when buf's capacity is below len(certain).
func keep(buf []core.POI, capacity int, queryLoc geom.Point, certain []core.POI) []core.POI {
	buf = append(buf[:0], certain...)
	core.SortByDistance(queryLoc, buf)
	if len(buf) > capacity {
		buf = buf[:capacity]
	}
	return buf
}

// Cache is one mobile host's NN result cache. The zero value is unusable;
// construct with New, or take a read view of a Table host with Table.View.
type Cache struct {
	capacity int
	// entry.Neighbors aliases buf (a cache that has stored) or the Arena a
	// Table host was read into (a view); empty means no entry.
	entry core.PeerCache
	// buf is the cache's own storage, reused by every Store. A view has
	// none, so a Store on it detaches it from the table rather than writing
	// through.
	buf []core.POI
}

// New returns an empty cache holding up to capacity POIs (the C_Size
// simulation parameter). capacity must be positive.
func New(capacity int) *Cache {
	if capacity <= 0 {
		panic("cache: capacity must be positive")
	}
	return &Cache{capacity: capacity}
}

// Capacity returns C_Size. Per policy 2 it is also the result count a host
// requests when it must contact the server.
func (c *Cache) Capacity() int { return c.capacity }

// Store replaces the cache content with the result of the host's most
// recent query (policy 1). Only certain POIs may be stored — the
// verification lemmas require peers to share exact top-k sets — and at most
// Capacity of the nearest ones are kept. Storing an empty set invalidates
// the cache. certain is copied, never retained or reordered; the previous
// entry's memory is overwritten in place (see Entry).
func (c *Cache) Store(queryLoc geom.Point, certain []core.POI) {
	c.buf = keep(c.buf, c.capacity, queryLoc, certain)
	c.entry = core.PeerCache{QueryLoc: queryLoc, Neighbors: c.buf}
}

// Entry returns the shareable cached result. ok is false when the cache is
// empty.
//
// The entry's Neighbors alias the cache's storage: they are valid until the
// next Store on this cache, which overwrites them in place.
// Callers that keep an entry across a Store must copy the neighbors first;
// encoding it or verifying against it before the next Store needs no copy.
func (c *Cache) Entry() (core.PeerCache, bool) {
	if len(c.entry.Neighbors) == 0 {
		return core.PeerCache{}, false
	}
	return c.entry, true
}

// StagedWrite is a deferred cache update: the resolve phase of a concurrent
// query batch records what Store call each query *would* make, and the
// commit phase applies the writes strictly in event order. Splitting the
// write off from resolution guarantees every resolver observes the caches
// exactly as they were at the start of the step — a snapshot — no matter
// how the batch is scheduled across workers.
//
// The zero value is a no-op: Apply on it does nothing, so resolvers that
// never produce a result need no special casing.
type StagedWrite struct {
	queryLoc geom.Point
	certain  []core.POI
	staged   bool
}

// Stage records a pending Store(queryLoc, certain). The slice is retained;
// callers must not mutate it afterwards.
func Stage(queryLoc geom.Point, certain []core.POI) StagedWrite {
	return StagedWrite{queryLoc: queryLoc, certain: certain, staged: true}
}

// Apply performs the recorded Store on c. A zero StagedWrite does nothing.
func (w StagedWrite) Apply(c *Cache) {
	if !w.staged {
		return
	}
	c.Store(w.queryLoc, w.certain)
}

// ApplyAt performs the recorded Store on host's entry of t. A zero
// StagedWrite does nothing.
func (w StagedWrite) ApplyAt(t *Table, host int) {
	if !w.staged {
		return
	}
	t.Store(host, w.queryLoc, w.certain)
}

// Staged reports whether Apply will write anything.
func (w StagedWrite) Staged() bool { return w.staged }
