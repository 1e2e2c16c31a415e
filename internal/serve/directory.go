package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/grid"
)

// sessionDirectory is the daemon's spatial index over live session
// positions: the structure that makes relay fan-out sublinear in the
// session count. It is a sharded uniform grid over the shared grid.Geom
// cell layout (the one the simulator's hostGrid / sim.PointGrid use), but
// mutable under churn: every streamed Position patches the index
// incrementally (move the session between cell buckets, or rewrite its
// stored position in place when the cell did not change), the way
// hostGrid.applyDelta patches the CSR grid from the moved-host delta.
//
// Sharding and locking. Cells are striped across a power-of-two number of
// shards by low cell-index bits, so the cells of one geographic
// neighborhood land on *different* shards and a hot region does not
// serialize behind one lock. Each shard owns a map from cell index to its
// bucket; a relay's range scan locks each covered cell's shard briefly and
// independently — it never touches the global Server.mu, and two relays in
// different neighborhoods proceed without contending at all.
//
// Lock ordering. A session's transitions between cells are serialized by
// its own session.dirMu; inside it the directory takes the affected shard
// locks one at a time (old cell, then new cell — never nested). The range
// scan takes shard.mu and, per in-range candidate, session.mu (to read the
// live conn). The global order is therefore
//
//	session.dirMu  >  dirShard.mu  >  session.mu
//
// and no path acquires them in the other direction. Nothing blocking ever
// runs under any of these locks.
//
// Membership mirrors the old linear sweep exactly: a session joins the
// directory with its first streamed Position and stays in it for the
// session's whole lifetime — a disconnect detaches the conn but keeps the
// position, because a reconnect resumes relaying from the last streamed
// position (the behavior the linear sweep had, pinned by the oracle
// property test). Whether a candidate is probed is decided at scan time by
// the exact distance filter and a non-nil conn.
type sessionDirectory struct {
	geo    grid.Geom
	shards []dirShard
	mask   uint32

	// Directory counters, exported on /v1/stats: cells scanned by relay
	// range scans, candidates rejected by the exact distance filter, and
	// index patch ops (sessions moved between cell buckets, first
	// insertions included).
	cellsScanned atomic.Int64
	candRejected atomic.Int64
	patchOps     atomic.Int64
}

// dirShard is one lock stripe of the directory.
type dirShard struct {
	mu    sync.Mutex
	cells map[int32]*dirCell
}

// dirCell is one grid cell's bucket: parallel slices of the member sessions
// and the positions they were filed under. Storing the position next to the
// session keeps the range scan's distance filter inside the shard lock,
// with no per-candidate session.mu traffic for out-of-range members.
type dirCell struct {
	sessions []*session
	pos      []geom.Point
}

const (
	// dirStripes is the lock-stripe count. 64 shards keep the probability
	// of two concurrent relays colliding on a stripe low at any realistic
	// core count, for a few hundred bytes of mutexes.
	dirStripes = 64
	// dirCellDivisor sizes the cell: 1/64 of the service area's larger
	// side, so a typical transmission radius covers a handful of cells
	// while a million uniformly spread sessions still keep bucket sizes in
	// the hundreds.
	dirCellDivisor = 64
)

// newSessionDirectory builds an empty directory over the service area.
// cell <= 0 and shards <= 0 pick the defaults — what the daemon always
// passes; the parameters exist for the layout property tests. shards is
// rounded up to a power of two so the stripe of a cell is a mask, not a
// modulo.
func newSessionDirectory(bounds geom.Rect, cell float64, shards int) *sessionDirectory {
	if cell <= 0 {
		cell = max(bounds.Width(), bounds.Height()) / dirCellDivisor
	}
	if shards <= 0 {
		shards = dirStripes
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	return &sessionDirectory{
		geo:    grid.New(bounds, cell),
		shards: make([]dirShard, n),
		mask:   uint32(n - 1),
	}
}

func (d *sessionDirectory) shard(cell int32) *dirShard {
	return &d.shards[uint32(cell)&d.mask]
}

// update files sess under pos, patching the index incrementally: the
// same-cell case rewrites the stored position in place under one shard
// lock; a cell change removes the session from its old bucket (swap-remove,
// fixing the swapped session's slot) and appends it to the new one. Safe
// against concurrent updates of the same session (a superseded connection
// racing its replacement): sess.dirMu serializes the transitions.
func (d *sessionDirectory) update(sess *session, pos geom.Point) {
	c := d.geo.CellIndex(pos)
	sess.dirMu.Lock()
	if sess.dirIn && sess.dirCell == c {
		sh := d.shard(c)
		sh.mu.Lock()
		sh.cells[c].pos[sess.dirSlot] = pos
		sh.mu.Unlock()
		sess.dirMu.Unlock()
		return
	}
	if sess.dirIn {
		old := sess.dirCell
		sh := d.shard(old)
		sh.mu.Lock()
		cell := sh.cells[old]
		i, last := sess.dirSlot, int32(len(cell.sessions)-1)
		if i != last {
			cell.sessions[i] = cell.sessions[last]
			cell.pos[i] = cell.pos[last]
			cell.sessions[i].dirSlot = i
		}
		cell.sessions[last] = nil // drop the reference; the bucket is reused
		cell.sessions = cell.sessions[:last]
		cell.pos = cell.pos[:last]
		sh.mu.Unlock()
	}
	sh := d.shard(c)
	sh.mu.Lock()
	if sh.cells == nil {
		sh.cells = make(map[int32]*dirCell)
	}
	cell := sh.cells[c]
	if cell == nil {
		// An emptied bucket is kept in the map (buckets are not freed on
		// churn), so steady-state movement allocates only when a session
		// reaches a cell nothing has ever occupied.
		cell = &dirCell{}
		sh.cells[c] = cell
	}
	sess.dirSlot = int32(len(cell.sessions))
	cell.sessions = append(cell.sessions, sess)
	cell.pos = append(cell.pos, pos)
	sh.mu.Unlock()
	sess.dirIn, sess.dirCell = true, c
	sess.dirMu.Unlock()
	d.patchOps.Add(1)
}

// relayTarget pairs a probed session with the connection captured at
// snapshot time (probes go to the conn that was attached when the sweep
// ran, exactly as the linear sweep did).
type relayTarget struct {
	sess *session
	conn *WSConn
}

// collectTargets appends every relay target within radius of q to dst: a
// connected session, other than exclude, whose last filed position passes
// the exact distance filter. It scans only the covered cells — O(r²/cell²)
// map lookups and shard locks — instead of the whole session table, and
// holds each shard lock only across its own cells' buckets. Enumeration
// order is cell-major (insertion order within a bucket); relay countdown
// semantics are order-insensitive, which the order property test pins.
func (d *sessionDirectory) collectTargets(exclude *session, q geom.Point, radius float64, dst []relayTarget) []relayTarget {
	r2 := radius * radius
	cx, cy := d.geo.RawCell(q)
	x0, y0, x1, y1 := d.geo.Cover(cx, cy, radius)
	var scanned, rejected int64
	for y := y0; y <= y1; y++ {
		row := int32(y * d.geo.NX())
		for x := x0; x <= x1; x++ {
			c := row + int32(x)
			scanned++
			sh := d.shard(c)
			sh.mu.Lock()
			cell := sh.cells[c]
			if cell != nil {
				for i, sess := range cell.sessions {
					if sess == exclude {
						continue
					}
					if q.Dist2(cell.pos[i]) > r2 {
						rejected++
						continue
					}
					sess.mu.Lock()
					conn := sess.conn
					sess.mu.Unlock()
					if conn == nil {
						continue
					}
					dst = append(dst, relayTarget{sess: sess, conn: conn})
				}
			}
			sh.mu.Unlock()
		}
	}
	d.cellsScanned.Add(scanned)
	d.candRejected.Add(rejected)
	return dst
}
