package pagestore

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// This file implements a packed, read-only, page-per-node R-tree layout and
// the node view internal/nn's generic iterator traverses. Pack serializes an
// in-memory R*-tree (preserving its exact structure, so fan-out and node
// boundaries — and therefore page-access counts — are identical); an opened
// DiskTree then serves queries through a BufferPool, turning the paper's
// abstract "page accesses" into concrete buffer hits and disk faults.

const (
	diskMagic     = uint32(0x53525452) // "SRTR"
	diskVersion   = uint32(1)
	innerEntrySz  = 4*8 + 4 // rect + child page id
	leafEntrySz   = 8 + 2*8 // item id + location
	nodeHeaderSz  = 8       // leaf flag + entry count
	pageHeaderCap = PageSize - nodeHeaderSz
)

// MaxInnerFanout and MaxLeafFanout are the largest node sizes one page can
// hold.
const (
	MaxInnerFanout = pageHeaderCap / innerEntrySz
	MaxLeafFanout  = pageHeaderCap / leafEntrySz
)

// LeafItem is the value a DiskTree returns for leaf entries: the stored
// item's identifier and location. Callers map IDs back to their domain
// objects (e.g. core.POI).
type LeafItem struct {
	ID  int64
	Loc geom.Point
}

// Appender is a Pager that can also be written, used by Pack.
type Appender interface {
	Pager
	AppendPage(buf []byte) (PageID, error)
	WritePage(id PageID, buf []byte) error
}

// WritePage overwrites an existing page of a PageFile.
func (pf *PageFile) WritePage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("pagestore: write of %d bytes, want %d", len(buf), PageSize)
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if int(id) >= pf.pages {
		return fmt.Errorf("pagestore: page %d out of range", id)
	}
	_, err := pf.f.WriteAt(buf, int64(id)*PageSize)
	return err
}

// WritePage overwrites an existing page of a MemPager.
func (m *MemPager) WritePage(id PageID, buf []byte) error {
	if int(id) >= len(m.pages) {
		return fmt.Errorf("pagestore: page %d out of range", id)
	}
	copy(m.pages[id], buf)
	return nil
}

// ItemEncoder maps a leaf value from the source tree to its packed
// representation. It must be total over the values stored in the tree.
type ItemEncoder func(data any) LeafItem

// Pack serializes t into dst: one node per page, children before parents,
// with a header on page 0. The encoder converts leaf values. Packing an
// empty tree is an error.
func Pack(t *rtree.Tree, dst Appender, encode ItemEncoder) error {
	root, ok := t.Root()
	if !ok {
		return errors.New("pagestore: cannot pack an empty tree")
	}
	// Reserve the header page.
	header := make([]byte, PageSize)
	if _, err := dst.AppendPage(header); err != nil {
		return err
	}
	rootID, err := packNode(root, dst, encode)
	if err != nil {
		return err
	}
	off := 0
	off = putU32(header, off, diskMagic)
	off = putU32(header, off, diskVersion)
	off = putU32(header, off, uint32(rootID))
	off = putU32(header, off, uint32(t.Height()))
	_ = putU64(header, off, uint64(t.Len()))
	return dst.WritePage(0, header)
}

// packNode serializes the subtree under nd and returns its page ID.
func packNode(nd rtree.Node, dst Appender, encode ItemEncoder) (PageID, error) {
	n := nd.Len()
	buf := make([]byte, PageSize)
	var leafFlag uint32
	if nd.IsLeaf() {
		leafFlag = 1
		if n > MaxLeafFanout {
			return InvalidPage, fmt.Errorf("pagestore: leaf fan-out %d exceeds page capacity %d", n, MaxLeafFanout)
		}
	} else if n > MaxInnerFanout {
		return InvalidPage, fmt.Errorf("pagestore: inner fan-out %d exceeds page capacity %d", n, MaxInnerFanout)
	}
	off := 0
	off = putU32(buf, off, leafFlag)
	off = putU32(buf, off, uint32(n))
	if nd.IsLeaf() {
		for i := 0; i < n; i++ {
			item := encode(nd.Data(i))
			off = putU64(buf, off, uint64(item.ID))
			off = putU64(buf, off, math.Float64bits(item.Loc.X))
			off = putU64(buf, off, math.Float64bits(item.Loc.Y))
		}
		return dst.AppendPage(buf)
	}
	for i := 0; i < n; i++ {
		childID, err := packNode(nd.Child(i), dst, encode)
		if err != nil {
			return InvalidPage, err
		}
		r := nd.Rect(i)
		off = putU64(buf, off, math.Float64bits(r.Min.X))
		off = putU64(buf, off, math.Float64bits(r.Min.Y))
		off = putU64(buf, off, math.Float64bits(r.Max.X))
		off = putU64(buf, off, math.Float64bits(r.Max.Y))
		off = putU32(buf, off, uint32(childID))
	}
	return dst.AppendPage(buf)
}

// DiskTree is a packed R-tree served through a buffer pool. Its Root and the
// nodes it returns have the method set nn.Iterator traverses, so INN/EINN
// run over it unchanged.
type DiskTree struct {
	pool   *BufferPool
	root   PageID
	height int
	count  int
}

// OpenDiskTree validates the header of the packed file and wraps it with a
// buffer pool of poolPages frames.
func OpenDiskTree(pager Pager, poolPages int) (*DiskTree, error) {
	pool := NewBufferPool(pager, poolPages)
	hdr, err := pool.Get(0)
	if err != nil {
		return nil, err
	}
	defer pool.Unpin(0)
	off := 0
	var magic, ver, root, height uint32
	magic, off = getU32(hdr, off)
	ver, off = getU32(hdr, off)
	root, off = getU32(hdr, off)
	height, off = getU32(hdr, off)
	count, _ := getU64(hdr, off)
	if magic != diskMagic {
		return nil, errors.New("pagestore: bad tree magic")
	}
	if ver != diskVersion {
		return nil, fmt.Errorf("pagestore: unsupported tree version %d", ver)
	}
	if int(root) >= pager.NumPages() {
		return nil, fmt.Errorf("pagestore: root page %d out of range", root)
	}
	return &DiskTree{pool: pool, root: PageID(root), height: int(height), count: int(count)}, nil
}

// Len returns the number of stored items.
func (dt *DiskTree) Len() int { return dt.count }

// Height returns the tree height recorded at pack time.
func (dt *DiskTree) Height() int { return dt.height }

// Pool exposes the buffer pool for statistics.
func (dt *DiskTree) Pool() *BufferPool { return dt.pool }

// Root fetches the root node. ok is false for an empty tree or a failed
// page read.
func (dt *DiskTree) Root() (*diskNode, bool) {
	nd, err := dt.fetch(dt.root)
	if err != nil {
		return nil, false
	}
	return nd, dt.count > 0
}

// diskNode is a fully decoded node. Decoding copies everything out of the
// buffer frame, which is unpinned before fetch returns.
type diskNode struct {
	dt    *DiskTree
	leaf  bool
	rects []geom.Rect
	kids  []PageID
	items []LeafItem
}

// fetch reads and decodes one node page, counting one buffer access.
func (dt *DiskTree) fetch(id PageID) (*diskNode, error) {
	buf, err := dt.pool.Get(id)
	if err != nil {
		return nil, err
	}
	defer dt.pool.Unpin(id)
	off := 0
	var leafFlag, n uint32
	leafFlag, off = getU32(buf, off)
	n, off = getU32(buf, off)
	nd := &diskNode{dt: dt, leaf: leafFlag == 1}
	if nd.leaf {
		if int(n) > MaxLeafFanout {
			return nil, fmt.Errorf("pagestore: corrupt leaf count %d", n)
		}
		nd.items = make([]LeafItem, n)
		for i := range nd.items {
			var idBits, xb, yb uint64
			idBits, off = getU64(buf, off)
			xb, off = getU64(buf, off)
			yb, off = getU64(buf, off)
			nd.items[i] = LeafItem{
				ID:  int64(idBits),
				Loc: geom.Point{X: math.Float64frombits(xb), Y: math.Float64frombits(yb)},
			}
		}
		return nd, nil
	}
	if int(n) > MaxInnerFanout {
		return nil, fmt.Errorf("pagestore: corrupt inner count %d", n)
	}
	nd.rects = make([]geom.Rect, n)
	nd.kids = make([]PageID, n)
	for i := range nd.rects {
		var a, b, c, d uint64
		a, off = getU64(buf, off)
		b, off = getU64(buf, off)
		c, off = getU64(buf, off)
		d, off = getU64(buf, off)
		var child uint32
		child, off = getU32(buf, off)
		nd.rects[i] = geom.Rect{
			Min: geom.Point{X: math.Float64frombits(a), Y: math.Float64frombits(b)},
			Max: geom.Point{X: math.Float64frombits(c), Y: math.Float64frombits(d)},
		}
		nd.kids[i] = PageID(child)
	}
	return nd, nil
}

// IsLeaf reports whether entries carry items rather than children.
func (nd *diskNode) IsLeaf() bool { return nd.leaf }

// Len returns the entry count.
func (nd *diskNode) Len() int {
	if nd.leaf {
		return len(nd.items)
	}
	return len(nd.rects)
}

// Rect returns the bounding rectangle of entry i.
func (nd *diskNode) Rect(i int) geom.Rect {
	if nd.leaf {
		return geom.RectFromPoint(nd.items[i].Loc)
	}
	return nd.rects[i]
}

// Data returns the LeafItem of leaf entry i.
func (nd *diskNode) Data(i int) any { return nd.items[i] }

// Child fetches the child node of inner entry i. Fetch failures surface as
// an empty node — the packed file is validated at open time, so this only
// happens on truncated files mid-read.
func (nd *diskNode) Child(i int) *diskNode {
	child, err := nd.dt.fetch(nd.kids[i])
	if err != nil {
		return &diskNode{dt: nd.dt, leaf: true}
	}
	return child
}
