package pagestore

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/rtree"
)

// buildSource creates an in-memory R*-tree over n random points; the item
// number is the point's index.
func buildSource(seed int64, n int, span float64) *rtree.Tree {
	rng := rand.New(rand.NewSource(seed))
	t := rtree.New(30)
	for i := 0; i < n; i++ {
		t.InsertPoint(geom.Pt(rng.Float64()*span, rng.Float64()*span), int32(i))
	}
	return t
}

func packToMem(t *testing.T, tree *rtree.Tree) *MemPager {
	t.Helper()
	m := NewMemPager()
	if err := Pack(tree, m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPackEmptyTreeFails(t *testing.T) {
	if err := Pack(rtree.NewDefault(), NewMemPager()); err == nil {
		t.Error("packing an empty tree should fail")
	}
}

func TestOpenDiskTreeValidation(t *testing.T) {
	m := NewMemPager()
	m.AppendPage(make([]byte, PageSize)) // zero header: bad magic
	if _, err := OpenDiskTree(m, 4); err == nil {
		t.Error("bad magic accepted")
	}
}

// The packed tree must return exactly the same kNN results as the source
// tree, for both INN and EINN, with identical page access counts (the
// structure is preserved node-for-node).
func TestDiskTreeEquivalence(t *testing.T) {
	tree := buildSource(1, 5000, 10000)
	m := packToMem(t, tree)
	dt, err := OpenDiskTree(m, m.NumPages()) // pool holds everything
	if err != nil {
		t.Fatal(err)
	}
	if dt.Len() != 5000 || dt.Height() != tree.Height() {
		t.Fatalf("metadata: len %d height %d, want %d/%d",
			dt.Len(), dt.Height(), tree.Len(), tree.Height())
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		q := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
		k := 1 + rng.Intn(12)

		memRes, memAcc := nn.BestFirst(tree, q, k)

		dt.Pool().ResetStats()
		diskRes, diskAcc := nn.BestFirst(dt, q, k)
		h, ms := dt.Pool().Stats()

		if len(memRes) != len(diskRes) {
			t.Fatalf("trial %d: result counts differ", trial)
		}
		for i := range memRes {
			if math.Abs(memRes[i].Dist-diskRes[i].Dist) > 1e-9 {
				t.Fatalf("trial %d rank %d: dist %v vs %v", trial, i, memRes[i].Dist, diskRes[i].Dist)
			}
			if memRes[i].Ref != diskRes[i].Ref {
				t.Fatalf("trial %d rank %d: ref %d vs %d", trial, i, memRes[i].Ref, diskRes[i].Ref)
			}
		}
		if diskAcc != memAcc {
			t.Fatalf("trial %d: disk accesses %d != memory accesses %d", trial, diskAcc, memAcc)
		}
		// The buffer pool counts lookups independently of the iterator.
		if h+ms != diskAcc {
			t.Fatalf("trial %d: pool served %d lookups, traversal counted %d pages", trial, h+ms, diskAcc)
		}
		// EINN with bounds agrees too.
		full := nn.BruteForce(tree, q, k+5)
		if len(full) > 2 {
			b := nn.Bounds{Lower: full[0].Dist, HasLower: true, Upper: full[len(full)-1].Dist, HasUpper: true}
			memE, memPages := nn.EINN(tree, q, k, b)
			diskE, diskPages := nn.EINN(dt, q, k, b)
			if len(memE) != len(diskE) || memPages != diskPages {
				t.Fatalf("trial %d: EINN results %d/%d, pages %d/%d differ",
					trial, len(memE), len(diskE), memPages, diskPages)
			}
			for i := range memE {
				if math.Abs(memE[i].Dist-diskE[i].Dist) > 1e-9 {
					t.Fatalf("trial %d: EINN dist mismatch", trial)
				}
			}
		}
	}
}

// A tiny pool forces disk faults; a big pool after warm-up serves from
// memory — the two I/O extremes of §4.4.
func TestBufferPoolExtremes(t *testing.T) {
	tree := buildSource(3, 20000, 48000)
	m := packToMem(t, tree)

	queries := func(dt *DiskTree) {
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 200; i++ {
			q := geom.Pt(rng.Float64()*48000, rng.Float64()*48000)
			nn.BestFirst(dt, q, 5)
		}
	}

	// Tiny pool: almost every access faults.
	small, err := OpenDiskTree(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	small.Pool().ResetStats()
	queries(small)
	smallRate := small.Pool().HitRate()

	// Pool sized for the whole file: after warm-up everything hits.
	big, err := OpenDiskTree(m, m.NumPages())
	if err != nil {
		t.Fatal(err)
	}
	queries(big) // warm up
	big.Pool().ResetStats()
	queries(big)
	bigRate := big.Pool().HitRate()

	if smallRate > 0.6 {
		t.Errorf("tiny pool hit rate %.2f implausibly high", smallRate)
	}
	if bigRate < 0.999 {
		t.Errorf("warm full pool hit rate %.3f, want ~1", bigRate)
	}
}

// Packing to a real file and reopening it must preserve everything.
func TestDiskTreeFileRoundTrip(t *testing.T) {
	tree := buildSource(5, 2000, 5000)
	path := filepath.Join(t.TempDir(), "tree.db")
	pf, err := CreatePageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Pack(tree, pf); err != nil {
		t.Fatal(err)
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
	dt, err := OpenDiskTree(ro, 64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		q := geom.Pt(rng.Float64()*5000, rng.Float64()*5000)
		want := nn.BruteForce(tree, q, 5)
		got, _ := nn.BestFirst(dt, q, 5)
		if len(got) != len(want) {
			t.Fatalf("trial %d: count mismatch", trial)
		}
		for i := range want {
			if math.Abs(want[i].Dist-got[i].Dist) > 1e-9 {
				t.Fatalf("trial %d rank %d: %v vs %v", trial, i, want[i].Dist, got[i].Dist)
			}
		}
	}
	// Physical reads must be bounded by pool misses.
	if ro.Reads() == 0 {
		t.Error("no physical reads recorded")
	}
}

func BenchmarkDiskTreeKNNColdPool(b *testing.B) {
	tree := buildSource(7, 50000, 48280)
	m := NewMemPager()
	if err := Pack(tree, m); err != nil {
		b.Fatal(err)
	}
	dt, err := OpenDiskTree(m, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geom.Pt(rng.Float64()*48280, rng.Float64()*48280)
		nn.BestFirst(dt, q, 5)
	}
	b.ReportMetric(dt.Pool().HitRate()*100, "hit%")
}

func BenchmarkDiskTreeKNNWarmPool(b *testing.B) {
	tree := buildSource(7, 50000, 48280)
	m := NewMemPager()
	if err := Pack(tree, m); err != nil {
		b.Fatal(err)
	}
	dt, err := OpenDiskTree(m, m.NumPages())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geom.Pt(rng.Float64()*48280, rng.Float64()*48280)
		nn.BestFirst(dt, q, 5)
	}
	b.ReportMetric(dt.Pool().HitRate()*100, "hit%")
}
