package sim

import (
	"fmt"
	"unsafe"

	"repro/internal/geom"
)

// Footprint is a World's host state in bytes, column by column. Every figure
// is computed from slice lengths — no runtime or allocator query — so it is
// deterministic for a configuration and a point in the run, and a test can
// hold the layout to a budget (TestWorldBytesPerHost). DESIGN.md §10 has the
// budget these columns add up to.
type Footprint struct {
	Hosts      int // population
	Movers     int // hosts with movement state
	CacheSlots int // hosts that have stored a query result
	// CacheEntries hosts hold an entry now, CachedNeighbors POIs in all:
	// their ratio against C_Size is how deep the shared caches are — what a
	// peer-solved query passes on, not bytes (slots are fixed-capacity).
	CacheEntries, CachedNeighbors int

	PosBytes        int64 // positions, 16 B per host
	CellBytes       int64 // each host's grid cell, 4 B per host
	GridBytes       int64 // host grid: bucket table, entries and their double buffer
	CacheIndexBytes int64 // cache slot index, 4 B per host
	CacheSlotBytes  int64 // cache slot storage, 24 + 4·C_Size B per slot, whole chunks, first-store order
	// MoverBytes is the moving list plus, per mover, the 56 B waypoint slot
	// (free movement) or the pointer to its road mover (road mode; the
	// mover's own route state is a heap object and not counted).
	MoverBytes int64

	// The server's POI index, which is not host state and not in Total: the
	// R*-tree's pages, the pages a point lookup reads, and its bytes.
	IndexNodes, IndexHeight int
	IndexBytes              int64
}

// Total sums the columns.
func (f Footprint) Total() int64 {
	return f.PosBytes + f.CellBytes + f.GridBytes + f.CacheIndexBytes + f.CacheSlotBytes + f.MoverBytes
}

// String renders the footprint as the four summary lines cmd/senn-sim prints.
func (f Footprint) String() string {
	mb := func(b int64) float64 { return float64(b) / (1 << 20) }
	return fmt.Sprintf("%d hosts, %d movers, %d cache slots in use: %.1f MB (%.1f B/host)\n"+
		"positions %.1f, cells %.1f, grid %.1f, cache index %.1f, cache slots %.1f, movement %.1f MB\n"+
		"cache entries: %d held, %.2f neighbors each\n"+
		"POI index: height %d, %d nodes, %d bytes",
		f.Hosts, f.Movers, f.CacheSlots, mb(f.Total()), float64(f.Total())/float64(f.Hosts),
		mb(f.PosBytes), mb(f.CellBytes), mb(f.GridBytes), mb(f.CacheIndexBytes), mb(f.CacheSlotBytes), mb(f.MoverBytes),
		f.CacheEntries, float64(f.CachedNeighbors)/float64(max(f.CacheEntries, 1)),
		f.IndexHeight, f.IndexNodes, f.IndexBytes)
}

// Footprint reports the world's current host-state memory. The fixed columns
// are set by New; cache slots grow with the hosts that query, and the grid's
// double buffer appears with the first cell crossing.
func (w *World) Footprint() Footprint {
	const i32 = int64(unsafe.Sizeof(int32(0)))
	f := Footprint{
		Hosts:      len(w.pos),
		Movers:     len(w.moving),
		CacheSlots: w.caches.Slots(),
		PosBytes:   int64(len(w.pos)) * int64(unsafe.Sizeof(geom.Point{})),
		CellBytes:  int64(len(w.cells)) * i32,
		GridBytes:  int64(len(w.grid.Start)+len(w.grid.Entries)+len(w.grid.delta.alt)+len(w.grid.delta.touch)) * i32,
		MoverBytes: int64(len(w.moving)) * i32,

		IndexNodes:  w.server.tree.Nodes(),
		IndexHeight: w.server.tree.Height(),
		IndexBytes:  w.server.tree.Bytes(),
	}
	f.CacheIndexBytes, f.CacheSlotBytes = w.caches.Bytes()
	f.CacheEntries, f.CachedNeighbors = w.caches.Held()
	if w.wp != nil {
		f.MoverBytes += w.wp.Bytes()
	} else {
		f.MoverBytes += int64(len(w.road)) * int64(unsafe.Sizeof(w.road[0]))
	}
	return f
}
