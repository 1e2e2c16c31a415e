package sim

import (
	"container/heap"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/rtree"
)

// serverSolvedPlans scans the warmed world for up to want queries that fall
// through to the server, so the fallback path can be measured in isolation.
func serverSolvedPlans(tb testing.TB, w *World, want int) []queryPlan {
	e := w.qengine
	sc := e.scratch[0]
	var plans []queryPlan
	for hi := 0; hi < len(w.pos) && len(plans) < want; hi++ {
		p := queryPlan{host: int32(hi), k: w.cfg.KMax}
		sc.r.ResetArena()
		if res := e.resolve(&p, sc); res.src == core.SolvedByServer {
			plans = append(plans, p)
		}
	}
	if len(plans) == 0 {
		tb.Fatal("warmed world produced no server-solved queries")
	}
	return plans
}

// refKNN is the independent reference for the one production iterator: the
// same lazy best-first search (a child page is fetched, and counted, only
// when its queue entry is popped) written over container/heap with boxed
// items instead of nn.Iterator's inlined sift. Equal results, tie order and
// page counts from the two are evidence about the loop, not a tautology.
type refItem struct {
	dist  float64
	node  rtree.Node // with child >= 0: the parent whose entry child awaits fetching
	child int        // -1: node is already fetched (the root)
	isPOI bool
	poi   core.POI
}

type refQueue []refItem

func (pq refQueue) Len() int           { return len(pq) }
func (pq refQueue) Less(i, j int) bool { return pq[i].dist < pq[j].dist }
func (pq refQueue) Swap(i, j int)      { pq[i], pq[j] = pq[j], pq[i] }
func (pq *refQueue) Push(x any)        { *pq = append(*pq, x.(refItem)) }
func (pq *refQueue) Pop() any {
	old := *pq
	it := old[len(old)-1]
	*pq = old[:len(old)-1]
	return it
}

func refKNN(t *rtree.Tree, pois []core.POI, q geom.Point, k int, b nn.Bounds) (out []core.POI, pages int64) {
	if k <= 0 {
		return nil, 0
	}
	root, ok := t.Root()
	if !ok {
		return nil, 1
	}
	pages = 1
	pq := &refQueue{{node: root, child: -1}}
	for pq.Len() > 0 && len(out) < k {
		it := heap.Pop(pq).(refItem)
		switch {
		case b.HasUpper && it.dist > b.Upper:
			return out, pages
		case it.isPOI:
			out = append(out, it.poi)
			continue
		case it.child >= 0:
			it.node, pages = it.node.Child(it.child), pages+1
		}
		nd := it.node
		for i := 0; i < nd.Len(); i++ {
			r := nd.Rect(i)
			mind := r.MinDist(q)
			switch {
			case b.HasUpper && mind > b.Upper: // upward pruning
			case nd.IsLeaf():
				if !b.HasLower || mind > b.Lower {
					heap.Push(pq, refItem{dist: mind, isPOI: true, poi: pois[nd.Ref(i)]})
				}
			case !b.HasLower || r.MaxDist(q) > b.Lower: // else: inside the certain circle
				heap.Push(pq, refItem{dist: mind, node: nd, child: i})
			}
		}
	}
	return out, pages
}

// TestKNNIntoMatchesReference pins the production EINN traversal against
// refKNN: over many random queries and bound combinations, results and page
// counts must be identical, not merely equivalent.
func TestKNNIntoMatchesReference(t *testing.T) {
	cfg := smallConfig()
	cfg.NumPOIs = 500
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := w.Server()
	rng := rand.New(rand.NewSource(8))
	var it nn.Iterator[rtree.Node]
	var dst []core.POI
	for trial := 0; trial < 400; trial++ {
		q := geom.Pt(rng.Float64()*cfg.AreaWidth, rng.Float64()*cfg.AreaHeight)
		k := rng.Intn(12) // includes k=0
		var b nn.Bounds
		if rng.Intn(2) == 0 {
			b.HasLower = true
			b.Lower = rng.Float64() * 300
		}
		if rng.Intn(2) == 0 {
			b.HasUpper = true
			b.Upper = b.Lower + rng.Float64()*1000
		}
		wantPOIs, wantPages := refKNN(s.Tree(), s.POIs(), q, k, b)
		gotPOIs, gotPages := s.KNNInto(q, k, b, &it, dst)
		dst = gotPOIs
		var got []core.POI
		if len(gotPOIs) > 0 {
			got = append([]core.POI(nil), gotPOIs...)
		}
		if !reflect.DeepEqual(got, wantPOIs) {
			t.Fatalf("trial %d (k=%d, bounds %+v): results diverged\ngot:  %v\nwant: %v",
				trial, k, b, got, wantPOIs)
		}
		if gotPages != wantPages {
			t.Fatalf("trial %d (k=%d, bounds %+v): %d pages, want %d", trial, k, b, gotPages, wantPages)
		}
	}
}

// TestResolveAllocsServerSolved extends the zero-allocation gate to the
// server fallback: with the worker's pooled iterator and fetched-POI scratch
// warm, resolving a server-solved batch must not touch the allocator.
func TestResolveAllocsServerSolved(t *testing.T) {
	w := warmResolveWorld(t)
	plans := serverSolvedPlans(t, w, 32)
	e := w.qengine
	sc := e.scratch[0]
	resolveAll := func() {
		sc.r.ResetArena() // the batch-start reset runBatch performs
		for i := range plans {
			e.resolve(&plans[i], sc)
		}
	}
	resolveAll() // warm the scratch capacities
	if allocs := testing.AllocsPerRun(50, resolveAll); allocs != 0 {
		t.Errorf("server-solved resolve path allocates %v objects per batch, want 0", allocs)
	}
}
