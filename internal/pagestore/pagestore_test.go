package pagestore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/rtree"
)

// buildSource indexes n random points at the paper's fan-out; the item
// number is the point's index.
func buildSource(seed int64, n int, span float64) *rtree.Tree {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*span, rng.Float64()*span)
	}
	return rtree.Build(30, n, func(i int) geom.Point { return pts[i] })
}

// resident lists the pool's pages, most recently used first, after checking
// that the LRU list and the id map hold the same pages.
func resident(t *testing.T, bp *BufferPool) []int32 {
	t.Helper()
	var ids []int32
	for fr := bp.head; fr != nil; fr = fr.next {
		if bp.frames[fr.id] != fr {
			t.Fatalf("page %d is on the LRU list but not in the map", fr.id)
		}
		ids = append(ids, fr.id)
	}
	if len(ids) != len(bp.frames) {
		t.Fatalf("LRU list holds %d pages, map %d", len(ids), len(bp.frames))
	}
	return ids
}

// The referee is the textbook LRU on a slice, most recent first: a hit
// moves the page to the front, a miss inserts it there and drops the last
// page once the slice is over capacity. After every access the pool must
// agree with it on hits, misses and the resident pages in recency order.
func TestBufferPoolMatchesSliceLRU(t *testing.T) {
	for capacity := 1; capacity <= 20; capacity++ {
		t.Run(fmt.Sprintf("capacity_%d", capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			bp := NewBufferPool(capacity)
			var lru []int32
			var hits, misses int64
			for step := 0; step < 10000; step++ {
				id := int32(rng.Intn(50))
				bp.Access(id)
				if i := slices.Index(lru, id); i >= 0 {
					hits++
					lru = slices.Delete(lru, i, i+1)
				} else {
					misses++
				}
				lru = slices.Insert(lru, 0, id)
				if len(lru) > capacity {
					lru = lru[:capacity]
				}
				if h, m := bp.Stats(); h != hits || m != misses {
					t.Fatalf("step %d (page %d): pool %d hits / %d misses, referee %d / %d", step, id, h, m, hits, misses)
				}
				if got := resident(t, bp); !slices.Equal(got, lru) {
					t.Fatalf("step %d (page %d): resident %v, referee %v", step, id, got, lru)
				}
			}
		})
	}
}

func TestBufferPoolLRUAndStats(t *testing.T) {
	bp := NewBufferPool(2)
	bp.Access(0)
	bp.Access(1)
	if hits, misses := bp.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("stats after cold reads: %d/%d", hits, misses)
	}
	bp.Access(0) // hit
	if hits, _ := bp.Stats(); hits != 1 {
		t.Fatalf("hits = %d", hits)
	}
	// Page 1 is now LRU; reading page 2 evicts it.
	bp.Access(2)
	if got := resident(t, bp); !slices.Equal(got, []int32{2, 0}) {
		t.Fatalf("resident = %v, want [2 0]", got)
	}
	bp.Access(1) // must be a miss again
	if _, misses := bp.Stats(); misses != 4 {
		t.Fatalf("misses = %d, want 4 (page 1 was evicted)", misses)
	}
	if bp.HitRate() != 0.2 {
		t.Errorf("hit rate = %v, want 0.2", bp.HitRate())
	}
	bp.ResetStats()
	if h, ms := bp.Stats(); h != 0 || ms != 0 || bp.HitRate() != 0 {
		t.Error("reset failed")
	}
}

func TestBufferPoolValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("capacity 0 should panic")
		}
	}()
	NewBufferPool(0)
}

// The paged view must return exactly the bare tree's kNN results and page
// counts, for both INN and EINN, and the pool must see one access per page
// the iterator counts.
func TestDiskTreeEquivalence(t *testing.T) {
	tree := buildSource(1, 5000, 10000)
	pt := Open(tree, Pages(tree)) // pool holds everything
	if h, ms := pt.Pool().Stats(); h != 0 || ms != 1 {
		t.Fatalf("open: %d hits / %d misses, want the header page's one miss", h, ms)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		q := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
		k := 1 + rng.Intn(12)

		memRes, memAcc := nn.BestFirst(tree, q, k)

		pt.Pool().ResetStats()
		diskRes, diskAcc := nn.BestFirst(pt, q, k)
		h, ms := pt.Pool().Stats()

		if !slices.Equal(memRes, diskRes) {
			t.Fatalf("trial %d: results %v, bare tree %v", trial, diskRes, memRes)
		}
		if diskAcc != memAcc {
			t.Fatalf("trial %d: paged accesses %d != bare accesses %d", trial, diskAcc, memAcc)
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
			pt.Pool().ResetStats()
			diskE, diskPages := nn.EINN(pt, q, k, b)
			h, ms := pt.Pool().Stats()
			if !slices.Equal(memE, diskE) || memPages != diskPages || h+ms != diskPages {
				t.Fatalf("trial %d: EINN results %d/%d, pages %d/%d, pool lookups %d differ",
					trial, len(memE), len(diskE), memPages, diskPages, h+ms)
			}
		}
	}
}

// A tiny pool forces disk faults; a big pool after warm-up serves from
// memory — the two I/O extremes of §4.4.
func TestBufferPoolExtremes(t *testing.T) {
	tree := buildSource(3, 20000, 48000)

	queries := func(pt *Tree) {
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 200; i++ {
			q := geom.Pt(rng.Float64()*48000, rng.Float64()*48000)
			nn.BestFirst(pt, q, 5)
		}
	}

	// Tiny pool: almost every access faults.
	small := Open(tree, 2)
	small.Pool().ResetStats()
	queries(small)
	smallRate := small.Pool().HitRate()

	// Pool sized for the whole file: after warm-up everything hits.
	big := Open(tree, Pages(tree))
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

func benchmarkKNNPool(b *testing.B, poolPages func(*rtree.Tree) int) {
	tree := buildSource(7, 50000, 48280)
	pt := Open(tree, poolPages(tree))
	rng := rand.New(rand.NewSource(8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geom.Pt(rng.Float64()*48280, rng.Float64()*48280)
		nn.BestFirst(pt, q, 5)
	}
	b.ReportMetric(pt.Pool().HitRate()*100, "hit%")
}

func BenchmarkPagedKNNColdPool(b *testing.B) {
	benchmarkKNNPool(b, func(*rtree.Tree) int { return 8 })
}

func BenchmarkPagedKNNWarmPool(b *testing.B) { benchmarkKNNPool(b, Pages) }
