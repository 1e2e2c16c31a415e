package pagestore

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/geom"
)

func TestPageFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	pf, err := CreatePageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var want [][]byte
	for i := 0; i < 10; i++ {
		buf := make([]byte, PageSize)
		rng.Read(buf)
		id, err := pf.AppendPage(buf)
		if err != nil {
			t.Fatal(err)
		}
		if int(id) != i {
			t.Fatalf("page id %d, want %d", id, i)
		}
		want = append(want, buf)
	}
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}

	ro, err := OpenPageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if ro.NumPages() != 10 {
		t.Fatalf("NumPages = %d", ro.NumPages())
	}
	buf := make([]byte, PageSize)
	for i, w := range want {
		if err := ro.ReadPage(PageID(i), buf); err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			if buf[j] != w[j] {
				t.Fatalf("page %d differs at byte %d", i, j)
			}
		}
	}
	if ro.Reads() != 10 {
		t.Errorf("Reads = %d", ro.Reads())
	}
	if err := ro.ReadPage(99, buf); err == nil {
		t.Error("out-of-range read accepted")
	}
	if _, err := ro.AppendPage(make([]byte, 5)); err == nil {
		t.Error("short append accepted")
	}
}

func TestOpenPageFileValidation(t *testing.T) {
	if _, err := OpenPageFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file opened")
	}
}

func TestMemPager(t *testing.T) {
	m := NewMemPager()
	buf := make([]byte, PageSize)
	buf[0] = 42
	id, err := m.AppendPage(buf)
	if err != nil || id != 0 {
		t.Fatalf("append: %v %v", id, err)
	}
	// The pager must copy: mutating the source buffer later is invisible.
	buf[0] = 7
	out := make([]byte, PageSize)
	if err := m.ReadPage(0, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 42 {
		t.Error("MemPager did not copy the page")
	}
	if m.Reads() != 1 {
		t.Errorf("Reads = %d", m.Reads())
	}
	if err := m.ReadPage(3, out); err == nil {
		t.Error("out-of-range read accepted")
	}
}

func TestBufferPoolLRUAndStats(t *testing.T) {
	m := NewMemPager()
	for i := 0; i < 5; i++ {
		buf := make([]byte, PageSize)
		buf[0] = byte(i)
		m.AppendPage(buf)
	}
	bp := NewBufferPool(m, 2)
	get := func(id PageID) byte {
		t.Helper()
		data, err := bp.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		v := data[0]
		bp.Unpin(id)
		return v
	}
	if get(0) != 0 || get(1) != 1 {
		t.Fatal("wrong content")
	}
	hits, misses := bp.Stats()
	if hits != 0 || misses != 2 {
		t.Fatalf("stats after cold reads: %d/%d", hits, misses)
	}
	_ = get(0) // hit
	hits, _ = bp.Stats()
	if hits != 1 {
		t.Fatalf("hits = %d", hits)
	}
	// Page 1 is now LRU; reading page 2 evicts it.
	_ = get(2)
	if len(bp.frames) != 2 {
		t.Fatalf("resident = %d", len(bp.frames))
	}
	_ = get(1) // must be a miss again
	_, misses = bp.Stats()
	if misses != 4 {
		t.Fatalf("misses = %d, want 4 (page 1 was evicted)", misses)
	}
	if bp.HitRate() <= 0 || bp.HitRate() >= 1 {
		t.Errorf("hit rate = %v", bp.HitRate())
	}
	bp.ResetStats()
	if h, ms := bp.Stats(); h != 0 || ms != 0 {
		t.Error("reset failed")
	}
}

func TestBufferPoolPinPreventsEviction(t *testing.T) {
	m := NewMemPager()
	for i := 0; i < 3; i++ {
		m.AppendPage(make([]byte, PageSize))
	}
	bp := NewBufferPool(m, 1)
	if _, err := bp.Get(0); err != nil { // pinned
		t.Fatal(err)
	}
	if _, err := bp.Get(1); err == nil {
		t.Error("pool should refuse when every frame is pinned")
	}
	bp.Unpin(0)
	if _, err := bp.Get(1); err != nil {
		t.Errorf("after unpin: %v", err)
	}
	bp.Unpin(1)
}

func TestBufferPoolValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("capacity 0 should panic")
		}
	}()
	NewBufferPool(NewMemPager(), 0)
}

func TestWritePage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	pf, err := CreatePageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	buf := make([]byte, PageSize)
	if _, err := pf.AppendPage(buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99
	if err := pf.WritePage(0, buf); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, PageSize)
	if err := pf.ReadPage(0, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 99 {
		t.Error("WritePage content lost")
	}
	if err := pf.WritePage(5, buf); err == nil {
		t.Error("out-of-range write accepted")
	}
	_ = geom.Point{}
}
