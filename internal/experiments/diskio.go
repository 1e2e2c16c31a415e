package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/pagestore"
)

// DiskIOPoint is one buffer-pool size of the §4.4 I/O spectrum study.
type DiskIOPoint struct {
	// PoolPages is the buffer pool capacity; PoolFraction the ratio to the
	// packed file size.
	PoolPages    int     `json:"pool_pages"`
	PoolFraction float64 `json:"pool_fraction"`
	// INNFaults and EINNFaults are mean disk faults (buffer misses) per
	// query for the two algorithms.
	INNFaults  float64 `json:"inn_faults_per_query"`
	EINNFaults float64 `json:"einn_faults_per_query"`
	// HitRate is the INN run's buffer hit rate.
	HitRate float64 `json:"hit_rate"`
}

// DiskIOResult is the full study for one region's POI set.
type DiskIOResult struct {
	Region     Region
	TotalPages int
	K          int
	Points     []DiskIOPoint
}

// DiskIOStudy reproduces the I/O spectrum discussion of §4.4: "all requested
// memory pages are found in main memory or every I/O leads to disk
// activity... Since the EINN usually requests fewer R*-tree nodes and
// objects than INN, we believe that the kNN search algorithm with query
// pruning bounds will have good scalability with large data sets."
//
// The study packs the region's clustered POI set into a page file, then runs
// the Figure 17 workload against buffer pools from nearly-nothing to
// everything-resident, measuring actual disk faults per query for INN and
// EINN. The paper's claim holds when EINN's fault count stays below INN's
// across the spectrum — most visibly at small pools where every avoided
// page access is a disk read avoided.
func DiskIOStudy(r Region, queries int, opts Options) (DiskIOResult, error) {
	base := BaseConfig(r, Area30mi)
	rng := rand.New(rand.NewSource(sweepSeed(base.Seed+44, opts, 0, 0)))
	s := newScene(base, 1200, rng)
	pager := pagestore.NewMemPager()
	if err := pagestore.Pack(s.tree, pager); err != nil {
		return DiskIOResult{}, err
	}

	const k = 6
	type workItem struct {
		q      geom.Point
		bounds nn.Bounds
		want   int
	}
	// Pre-generate the query workload once so every pool size sees the
	// identical sequence.
	work := make([]workItem, queries)
	var verify core.VerifierScratch
	for i := range work {
		work[i].q, work[i].bounds, work[i].want = s.serverQuery(rng, &verify, k)
	}

	total := pager.NumPages()
	fractions := []float64{0.02, 0.05, 0.1, 0.25, 0.5, 1.0}
	out := DiskIOResult{Region: r, TotalPages: total, K: k}
	out.Points = make([]DiskIOPoint, len(fractions))
	// The pool sizes are independent measurements over the same read-only
	// page file and workload: fan them across opts.Workers. Each task opens
	// its own DiskTree, so the buffer pool and its statistics are private;
	// the shared pager only serves concurrent page reads.
	tasks := make([]RunTask, len(fractions))
	for i, frac := range fractions {
		tasks[i] = func() error {
			pool := int(frac * float64(total))
			if pool < 2 {
				pool = 2
			}
			run := func(useBounds bool) (faults float64, hitRate float64, err error) {
				dt, err := pagestore.OpenDiskTree(pager, pool)
				if err != nil {
					return 0, 0, err
				}
				// One pass to warm the pool, one measured pass.
				for pass := 0; pass < 2; pass++ {
					if pass == 1 {
						dt.Pool().ResetStats()
					}
					for _, wi := range work {
						if useBounds {
							nn.EINN(dt, wi.q, wi.want, wi.bounds)
						} else {
							nn.BestFirst(dt, wi.q, base.CacheSize)
						}
					}
				}
				_, misses := dt.Pool().Stats()
				return float64(misses) / float64(len(work)), dt.Pool().HitRate(), nil
			}
			innFaults, hitRate, err := run(false)
			if err != nil {
				return err
			}
			einnFaults, _, err := run(true)
			if err != nil {
				return err
			}
			out.Points[i] = DiskIOPoint{
				PoolPages:    pool,
				PoolFraction: frac,
				INNFaults:    innFaults,
				EINNFaults:   einnFaults,
				HitRate:      hitRate,
			}
			return nil
		}
	}
	if err := RunParallel(tasks, opts.Workers); err != nil {
		return out, err
	}
	return out, nil
}

// FormatDiskIO renders the study as an aligned text table.
func FormatDiskIO(r DiskIOResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Disk I/O spectrum (§4.4) — %s, %d pages packed, k=%d\n",
		r.Region, r.TotalPages, r.K)
	fmt.Fprintf(&b, "%-12s %10s %14s %14s %10s\n",
		"pool frac", "pages", "INN faults/q", "EINN faults/q", "hit rate")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-12.2f %10d %14.2f %14.2f %9.1f%%\n",
			p.PoolFraction, p.PoolPages, p.INNFaults, p.EINNFaults, 100*p.HitRate)
	}
	return b.String()
}
