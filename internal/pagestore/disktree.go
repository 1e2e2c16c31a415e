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

// Pack serializes t into dst: one node per page, children before parents,
// with a header on page 0. A leaf entry is the tree's own: the item number
// (widened to the page format's 8-byte id) and the point. Packing an empty
// tree is an error.
func Pack(t *rtree.Tree, dst Appender) error {
	root, ok := t.Root()
	if !ok {
		return errors.New("pagestore: cannot pack an empty tree")
	}
	// Reserve the header page.
	header := make([]byte, PageSize)
	if _, err := dst.AppendPage(header); err != nil {
		return err
	}
	rootID, err := packNode(root, dst)
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
func packNode(nd rtree.Node, dst Appender) (PageID, error) {
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
			p := nd.Point(i)
			off = putU64(buf, off, uint64(int64(nd.Ref(i))))
			off = putU64(buf, off, math.Float64bits(p.X))
			off = putU64(buf, off, math.Float64bits(p.Y))
		}
		return dst.AppendPage(buf)
	}
	for i := 0; i < n; i++ {
		childID, err := packNode(nd.Child(i), dst)
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

// Node fetches the child an inner entry's Ref names — its page id. Fetch
// failures surface as an empty node — the packed file is validated at open
// time, so this only happens on truncated files mid-read.
func (dt *DiskTree) Node(ref int32) *diskNode {
	child, err := dt.fetch(PageID(ref))
	if err != nil {
		return &diskNode{leaf: true}
	}
	return child
}

// diskNode is a fully decoded node. Decoding copies everything out of the
// buffer frame, which is unpinned before fetch returns.
type diskNode struct {
	leaf  bool
	rects []geom.Rect  // inner: child MBRs
	pts   []geom.Point // leaf: item locations
	refs  []int32      // leaf: item numbers; inner: child page ids
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
	nd := &diskNode{leaf: leafFlag == 1}
	if nd.leaf {
		if int(n) > MaxLeafFanout {
			return nil, fmt.Errorf("pagestore: corrupt leaf count %d", n)
		}
		nd.pts, nd.refs = make([]geom.Point, n), make([]int32, n)
		for i := range nd.pts {
			var idBits, xb, yb uint64
			idBits, off = getU64(buf, off)
			xb, off = getU64(buf, off)
			yb, off = getU64(buf, off)
			nd.refs[i] = int32(int64(idBits))
			nd.pts[i] = geom.Point{X: math.Float64frombits(xb), Y: math.Float64frombits(yb)}
		}
		return nd, nil
	}
	if int(n) > MaxInnerFanout {
		return nil, fmt.Errorf("pagestore: corrupt inner count %d", n)
	}
	nd.rects, nd.refs = make([]geom.Rect, n), make([]int32, n)
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
		nd.refs[i] = int32(child)
	}
	return nd, nil
}

// IsLeaf reports whether entries carry items rather than children.
func (nd *diskNode) IsLeaf() bool { return nd.leaf }

// Len returns the entry count.
func (nd *diskNode) Len() int { return len(nd.refs) }

// Rect returns the bounding rectangle of inner entry i.
func (nd *diskNode) Rect(i int) geom.Rect { return nd.rects[i] }

// Point returns the location of leaf entry i.
func (nd *diskNode) Point(i int) geom.Point { return nd.pts[i] }

// Ref returns the item number of leaf entry i or the page id of inner
// entry i's child.
func (nd *diskNode) Ref(i int) int32 { return nd.refs[i] }
