package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/grid"
)

// sessionDirectory is the daemon's spatial index over live session
// positions: the structure that makes relay fan-out sublinear in the
// session count. It is a uniform grid over the shared grid.Geom cell layout
// (the one the simulator's hostGrid / sim.PointGrid use), but mutable under
// churn: every streamed Position patches the index incrementally (move the
// session between cell buckets, or rewrite its stored position in place
// when the cell did not change), the way hostGrid.applyDelta patches the
// CSR grid from the moved-host delta.
//
// Locking. One mutex, mu, guards the cell map and, for every session, its
// place in it (dirIn, dirCell, dirSlot). A session's conn is set when the
// session is created and never changes, so it needs no guard. A relay's
// range scan holds mu across the covered cells; an update or a removal holds
// it across one cell move. Nothing blocking runs under it, and no path
// holds it together with Server.mu or the relay table's lock.
// BenchmarkRelayFanout/contended measures the lock under concurrent updates
// and scans; on two and eight cores it beat per-cell lock stripes, whose
// acquisitions a 1 km scan paid once per covered cell.
//
// A session is its connection: it joins the directory with its first
// streamed Position and leaves it when the connection ends (dropConn), so
// the cells hold exactly the live connections that have streamed a
// position. Whether a member is probed is decided at scan time by the exact
// distance filter alone.
type sessionDirectory struct {
	geo grid.Geom

	mu    sync.Mutex
	cells map[int32]*dirCell

	// Directory counters, exported on /v1/stats: cells scanned by relay
	// range scans, candidates rejected by the exact distance filter, and
	// index patch ops (sessions moved between cell buckets, first
	// insertions included).
	cellsScanned atomic.Int64
	candRejected atomic.Int64
	patchOps     atomic.Int64
}

// dirCell is one grid cell's bucket: parallel slices of the member sessions
// and the positions they were filed under. Storing the position next to the
// session lets the range scan's distance filter read the bucket alone.
type dirCell struct {
	sessions []*session
	pos      []geom.Point
}

// dirCellDivisor sizes the cell: 1/64 of the service area's larger side, so
// a typical transmission radius covers a handful of cells while a million
// uniformly spread sessions still keep bucket sizes in the hundreds.
const dirCellDivisor = 64

// newSessionDirectory builds an empty directory over the service area.
// cell <= 0 picks the default — what the daemon always passes; the
// parameter exists for the layout property tests.
func newSessionDirectory(bounds geom.Rect, cell float64) *sessionDirectory {
	if cell <= 0 {
		cell = max(bounds.Width(), bounds.Height()) / dirCellDivisor
	}
	return &sessionDirectory{
		geo:   grid.New(bounds, cell),
		cells: make(map[int32]*dirCell),
	}
}

// update files sess under pos, patching the index incrementally: the
// same-cell case rewrites the stored position in place; a cell change
// removes the session from its old bucket (unfile) and appends it to the
// new one.
func (d *sessionDirectory) update(sess *session, pos geom.Point) {
	c := d.geo.CellIndex(pos)
	d.mu.Lock()
	if sess.dirIn && sess.dirCell == c {
		d.cells[c].pos[sess.dirSlot] = pos
		d.mu.Unlock()
		return
	}
	d.unfile(sess)
	cell := d.cells[c]
	if cell == nil {
		// An emptied bucket is kept in the map (buckets are not freed on
		// churn), so steady-state movement allocates only when a session
		// reaches a cell nothing has ever occupied.
		cell = &dirCell{}
		d.cells[c] = cell
	}
	sess.dirSlot = int32(len(cell.sessions))
	cell.sessions = append(cell.sessions, sess)
	cell.pos = append(cell.pos, pos)
	sess.dirIn, sess.dirCell = true, c
	d.mu.Unlock()
	d.patchOps.Add(1)
}

// remove retires sess from the directory when its connection ends.
func (d *sessionDirectory) remove(sess *session) {
	d.mu.Lock()
	d.unfile(sess)
	d.mu.Unlock()
}

// unfile swap-removes sess from its bucket, if it is filed, fixing the
// swapped session's slot. The caller holds mu.
func (d *sessionDirectory) unfile(sess *session) {
	if !sess.dirIn {
		return
	}
	cell := d.cells[sess.dirCell]
	i, last := sess.dirSlot, int32(len(cell.sessions)-1)
	if i != last {
		cell.sessions[i] = cell.sessions[last]
		cell.pos[i] = cell.pos[last]
		cell.sessions[i].dirSlot = i
	}
	cell.sessions[last] = nil // drop the reference; the bucket is reused
	cell.sessions = cell.sessions[:last]
	cell.pos = cell.pos[:last]
	sess.dirIn = false
}

// collectTargets appends every relay target within radius of q to dst: a
// session, other than exclude, whose last filed position passes the exact
// distance filter. It scans only the covered cells — O(r²/cell²)
// map lookups — instead of the whole session table. Enumeration order is
// cell-major (insertion order within a bucket); relay countdown semantics
// are order-insensitive, which the order property test pins.
func (d *sessionDirectory) collectTargets(exclude *session, q geom.Point, radius float64, dst []*session) []*session {
	r2 := radius * radius
	cx, cy := d.geo.RawCell(q)
	x0, y0, x1, y1 := d.geo.Cover(cx, cy, radius)
	var scanned, rejected int64
	d.mu.Lock()
	for y := y0; y <= y1; y++ {
		row := int32(y * d.geo.NX())
		for x := x0; x <= x1; x++ {
			scanned++
			cell := d.cells[row+int32(x)]
			if cell == nil {
				continue
			}
			for i, sess := range cell.sessions {
				if sess == exclude {
					continue
				}
				if q.Dist2(cell.pos[i]) > r2 {
					rejected++
					continue
				}
				dst = append(dst, sess)
			}
		}
	}
	d.mu.Unlock()
	d.cellsScanned.Add(scanned)
	d.candRejected.Add(rejected)
	return dst
}
