// Package pagestore provides the disk-resident storage substrate behind the
// paper's I/O discussion (§4.4): "at the end of a spectrum there are two
// extreme I/O behaviors of the spatial database server: all requested memory
// pages are found in main memory or every I/O leads to disk activity."
//
// It implements a fixed-size page file and an LRU buffer pool with pin
// counting and hit/miss statistics, plus a packed, read-only R-tree layout
// (one node per page) whose node view the generic iterator in internal/nn
// traverses directly. Running INN/EINN over a DiskTree
// reports true buffer hits versus disk faults, locating a configuration
// anywhere between the paper's two extremes by sizing the pool.
package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// PageSize is the fixed page size in bytes. 4 KiB matches common disk and
// OS page granularity.
const PageSize = 4096

// PageID identifies a page within a file, starting at 0.
type PageID uint32

// InvalidPage is the sentinel for "no page".
const InvalidPage = PageID(^uint32(0))

// Pager reads fixed-size pages by ID.
type Pager interface {
	// ReadPage fills buf (len PageSize) with page id's content.
	ReadPage(id PageID, buf []byte) error
	// NumPages returns the page count.
	NumPages() int
}

// ---------------------------------------------------------------------------
// File-backed pager.

// PageFile is a page-granular file. It supports appending pages during
// construction and random reads afterwards. Writes are not buffered — the
// packed-tree builder writes each page once.
type PageFile struct {
	f     *os.File
	pages int
	// reads counts physical page reads (the "disk I/O" statistic).
	reads int64
	mu    sync.Mutex
}

// CreatePageFile creates (or truncates) a page file at path.
func CreatePageFile(path string) (*PageFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("pagestore: create: %w", err)
	}
	return &PageFile{f: f}, nil
}

// OpenPageFile opens an existing page file read-only.
func OpenPageFile(path string) (*PageFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pagestore: open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pagestore: stat: %w", err)
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("pagestore: file size %d not page aligned", st.Size())
	}
	return &PageFile{f: f, pages: int(st.Size() / PageSize)}, nil
}

// AppendPage writes buf (len PageSize) as the next page, returning its ID.
func (pf *PageFile) AppendPage(buf []byte) (PageID, error) {
	if len(buf) != PageSize {
		return InvalidPage, fmt.Errorf("pagestore: append of %d bytes, want %d", len(buf), PageSize)
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	off := int64(pf.pages) * PageSize
	if _, err := pf.f.WriteAt(buf, off); err != nil {
		return InvalidPage, fmt.Errorf("pagestore: write page %d: %w", pf.pages, err)
	}
	id := PageID(pf.pages)
	pf.pages++
	return id, nil
}

// ReadPage implements Pager.
func (pf *PageFile) ReadPage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("pagestore: read into %d bytes, want %d", len(buf), PageSize)
	}
	if int(id) >= pf.pages {
		return fmt.Errorf("pagestore: page %d out of range (%d pages)", id, pf.pages)
	}
	pf.mu.Lock()
	pf.reads++
	pf.mu.Unlock()
	_, err := pf.f.ReadAt(buf, int64(id)*PageSize)
	if err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("pagestore: read page %d: %w", id, err)
	}
	return nil
}

// NumPages implements Pager.
func (pf *PageFile) NumPages() int {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.pages
}

// Reads returns the physical page reads performed so far.
func (pf *PageFile) Reads() int64 {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.reads
}

// Sync flushes the file.
func (pf *PageFile) Sync() error { return pf.f.Sync() }

// Close closes the underlying file.
func (pf *PageFile) Close() error { return pf.f.Close() }

// ---------------------------------------------------------------------------
// In-memory pager (for tests and small data sets).

// MemPager keeps all pages in memory; "disk" reads are still counted so the
// statistics remain meaningful. Once construction (AppendPage) is done, the
// pager is safe for concurrent readers — experiment runners fan independent
// buffer pools over one shared pager.
type MemPager struct {
	pages [][]byte
	reads atomic.Int64
}

// NewMemPager returns an empty in-memory pager.
func NewMemPager() *MemPager { return &MemPager{} }

// AppendPage stores a copy of buf as the next page.
func (m *MemPager) AppendPage(buf []byte) (PageID, error) {
	if len(buf) != PageSize {
		return InvalidPage, fmt.Errorf("pagestore: append of %d bytes, want %d", len(buf), PageSize)
	}
	cp := make([]byte, PageSize)
	copy(cp, buf)
	m.pages = append(m.pages, cp)
	return PageID(len(m.pages) - 1), nil
}

// ReadPage implements Pager.
func (m *MemPager) ReadPage(id PageID, buf []byte) error {
	if int(id) >= len(m.pages) {
		return fmt.Errorf("pagestore: page %d out of range (%d pages)", id, len(m.pages))
	}
	m.reads.Add(1)
	copy(buf, m.pages[id])
	return nil
}

// NumPages implements Pager.
func (m *MemPager) NumPages() int { return len(m.pages) }

// Reads returns the backing reads performed so far.
func (m *MemPager) Reads() int64 { return m.reads.Load() }

// ---------------------------------------------------------------------------
// LRU buffer pool.

// frame is one resident page.
type frame struct {
	id   PageID
	data []byte
	pins int
	prev *frame
	next *frame
}

// BufferPool caches pages with LRU replacement and pin counting. It is safe
// for single-goroutine use — concurrent experiment runners give every task
// its own pool; the underlying pagers are independently synchronized and may
// be shared.
type BufferPool struct {
	pager    Pager
	capacity int
	frames   map[PageID]*frame
	// LRU list: head = most recently used.
	head, tail *frame

	hits, misses int64
}

// NewBufferPool wraps pager with an LRU cache of capacity pages. capacity
// must be at least 1.
func NewBufferPool(pager Pager, capacity int) *BufferPool {
	if capacity < 1 {
		panic("pagestore: buffer pool capacity must be >= 1")
	}
	return &BufferPool{
		pager:    pager,
		capacity: capacity,
		frames:   make(map[PageID]*frame, capacity),
	}
}

// Get returns the content of page id, pinning it. The returned slice aliases
// the buffer frame: callers must not retain it past Unpin and must not
// write to it.
func (bp *BufferPool) Get(id PageID) ([]byte, error) {
	if fr, ok := bp.frames[id]; ok {
		bp.hits++
		fr.pins++
		bp.touch(fr)
		return fr.data, nil
	}
	bp.misses++
	// Evict if full.
	for len(bp.frames) >= bp.capacity {
		victim := bp.lruVictim()
		if victim == nil {
			return nil, errors.New("pagestore: buffer pool exhausted (all pages pinned)")
		}
		bp.remove(victim)
	}
	fr := &frame{id: id, data: make([]byte, PageSize), pins: 1}
	if err := bp.pager.ReadPage(id, fr.data); err != nil {
		return nil, err
	}
	bp.frames[id] = fr
	bp.pushFront(fr)
	return fr.data, nil
}

// Unpin releases one pin on page id. Unpinned pages become eviction
// candidates.
func (bp *BufferPool) Unpin(id PageID) {
	if fr, ok := bp.frames[id]; ok && fr.pins > 0 {
		fr.pins--
	}
}

// Stats returns buffer hits and misses since the last reset.
func (bp *BufferPool) Stats() (hits, misses int64) { return bp.hits, bp.misses }

// HitRate returns the fraction of Get calls served from memory.
func (bp *BufferPool) HitRate() float64 {
	total := bp.hits + bp.misses
	if total == 0 {
		return 0
	}
	return float64(bp.hits) / float64(total)
}

// ResetStats zeroes the hit/miss counters.
func (bp *BufferPool) ResetStats() { bp.hits, bp.misses = 0, 0 }

func (bp *BufferPool) pushFront(fr *frame) {
	fr.prev = nil
	fr.next = bp.head
	if bp.head != nil {
		bp.head.prev = fr
	}
	bp.head = fr
	if bp.tail == nil {
		bp.tail = fr
	}
}

func (bp *BufferPool) unlink(fr *frame) {
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else {
		bp.head = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else {
		bp.tail = fr.prev
	}
	fr.prev, fr.next = nil, nil
}

func (bp *BufferPool) touch(fr *frame) {
	bp.unlink(fr)
	bp.pushFront(fr)
}

// lruVictim returns the least recently used unpinned frame, or nil.
func (bp *BufferPool) lruVictim() *frame {
	for fr := bp.tail; fr != nil; fr = fr.prev {
		if fr.pins == 0 {
			return fr
		}
	}
	return nil
}

func (bp *BufferPool) remove(fr *frame) {
	bp.unlink(fr)
	delete(bp.frames, fr.id)
}

// ---------------------------------------------------------------------------
// Small binary helpers shared by the packed tree layout.

func putU32(buf []byte, off int, v uint32) int {
	binary.LittleEndian.PutUint32(buf[off:], v)
	return off + 4
}

func getU32(buf []byte, off int) (uint32, int) {
	return binary.LittleEndian.Uint32(buf[off:]), off + 4
}

func putU64(buf []byte, off int, v uint64) int {
	binary.LittleEndian.PutUint64(buf[off:], v)
	return off + 8
}

func getU64(buf []byte, off int) (uint64, int) {
	return binary.LittleEndian.Uint64(buf[off:]), off + 8
}
