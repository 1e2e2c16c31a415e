package core

import (
	"math"
	"sort"

	"repro/internal/nn"
)

// HeapState classifies the content of the result heap H after kNN_single and
// kNN_multiple have run without certifying k objects (§3.3). The state
// determines which branch-expanding bounds can be forwarded to the server.
type HeapState int

const (
	// StateFullMixed — H is full with both certain and uncertain entries:
	// both bounds available.
	StateFullMixed HeapState = 1
	// StateFullUncertain — H is full with only uncertain entries: upper
	// bound only.
	StateFullUncertain HeapState = 2
	// StateNotFullMixed — H is not full, both kinds present: lower bound
	// only.
	StateNotFullMixed HeapState = 3
	// StateNotFullCertain — H is not full with only certain entries: lower
	// bound only.
	StateNotFullCertain HeapState = 4
	// StateNotFullUncertain — H is not full with only uncertain entries: no
	// bounds.
	StateNotFullUncertain HeapState = 5
	// StateEmpty — H holds nothing: no bounds.
	StateEmpty HeapState = 6
)

// String implements fmt.Stringer.
func (s HeapState) String() string {
	switch s {
	case StateFullMixed:
		return "full/mixed"
	case StateFullUncertain:
		return "full/uncertain"
	case StateNotFullMixed:
		return "notfull/mixed"
	case StateNotFullCertain:
		return "notfull/certain"
	case StateNotFullUncertain:
		return "notfull/uncertain"
	case StateEmpty:
		return "empty"
	default:
		return "invalid"
	}
}

// Candidate is an entry of the result heap H: a POI, its distance to the
// query point, and whether peer verification certified it as a true nearest
// neighbor.
type Candidate struct {
	POI
	Dist    float64
	Certain bool
}

// after reports whether c sorts after o in the repository's total order:
// ascending distance, equal distances by ascending POI ID — the order INE and
// ServerModule.Range use.
func (c Candidate) after(o Candidate) bool {
	if c.Dist != o.Dist {
		return c.Dist > o.Dist
	}
	return c.ID > o.ID
}

// ResultHeap is the paper's heap H (§3.2.1, Table 1): a bounded container of
// the k best candidates discovered so far. Certain entries are kept in
// ascending distance order ahead of uncertain entries (also ascending);
// uncertain entries exist only while fewer than k certain ones are known,
// and a newly certified object evicts the worst uncertain one. Entries are
// deduplicated by POI ID, and certifying an already-present uncertain POI
// upgrades it in place. The heap never holds more than k entries — k is a
// result size or a cache capacity, a few dozen at most — so the
// deduplication is a linear scan of the two slices, not an index.
//
// Both lists are ordered by the total order (distance, then POI ID), so what
// the heap holds is a function of the set of candidates added, not of the
// order they arrived in: callers need neither sort nor deduplicate what they
// feed it.
type ResultHeap struct {
	k         int
	certain   []Candidate
	uncertain []Candidate
	dists     []float64 // UpperBoundFor scratch, reused across queries
}

// NewResultHeap returns an empty heap for a query requesting k neighbors.
// k must be positive.
func NewResultHeap(k int) *ResultHeap {
	if k <= 0 {
		panic("core: result heap needs k > 0")
	}
	return &ResultHeap{k: k}
}

// Reset empties the heap and re-arms it for a query requesting k neighbors,
// retaining the allocated backing storage. It lets a resolver worker reuse
// one heap as scratch across a batch of queries. k must be positive.
func (h *ResultHeap) Reset(k int) {
	if k <= 0 {
		panic("core: result heap needs k > 0")
	}
	h.k = k
	h.certain = h.certain[:0]
	h.uncertain = h.uncertain[:0]
}

// K returns the requested result count.
func (h *ResultHeap) K() int { return h.k }

// Len returns the number of entries currently held.
func (h *ResultHeap) Len() int { return len(h.certain) + len(h.uncertain) }

// NumCertain returns the number of certified entries.
func (h *ResultHeap) NumCertain() int { return len(h.certain) }

// Full reports whether the heap holds k entries.
func (h *ResultHeap) Full() bool { return h.Len() >= h.k }

// Complete reports whether the heap holds k certain entries — a fully
// verified answer.
func (h *ResultHeap) Complete() bool { return len(h.certain) >= h.k }

// Add inserts a candidate, enforcing the heap discipline described on the
// type. It reports whether the heap content changed.
func (h *ResultHeap) Add(c Candidate) bool {
	if c.Certain {
		return h.addCertain(c)
	}
	return h.addUncertain(c)
}

func (h *ResultHeap) addCertain(c Candidate) bool {
	if indexOfID(h.certain, c.ID) >= 0 {
		return false // already certain
	}
	if i := indexOfID(h.uncertain, c.ID); i >= 0 {
		// An upgrade of an uncertain entry.
		h.uncertain = append(h.uncertain[:i], h.uncertain[i+1:]...)
	}
	return h.insertCertain(c)
}

// indexOfID returns the position of the entry for POI id, or -1.
func indexOfID(entries []Candidate, id int64) int {
	for i := range entries {
		if entries[i].ID == id {
			return i
		}
	}
	return -1
}

func (h *ResultHeap) insertCertain(c Candidate) bool {
	i := sort.Search(len(h.certain), func(i int) bool { return h.certain[i].after(c) })
	h.certain = append(h.certain, Candidate{})
	copy(h.certain[i+1:], h.certain[i:])
	h.certain[i] = c
	if len(h.certain) > h.k {
		// More certain objects than requested: keep the k nearest.
		h.certain = h.certain[:len(h.certain)-1]
	}
	h.trimUncertain()
	return true
}

func (h *ResultHeap) addUncertain(c Candidate) bool {
	room := h.k - len(h.certain)
	if room <= 0 {
		return false
	}
	i := sort.Search(len(h.uncertain), func(i int) bool { return h.uncertain[i].after(c) })
	if i >= room {
		return false // worse than every kept uncertain entry
	}
	if indexOfID(h.certain, c.ID) >= 0 || indexOfID(h.uncertain, c.ID) >= 0 {
		return false // certain or already queued: nothing to improve
	}
	h.uncertain = append(h.uncertain, Candidate{})
	copy(h.uncertain[i+1:], h.uncertain[i:])
	h.uncertain[i] = c
	h.trimUncertain()
	return true
}

// trimUncertain drops uncertain entries beyond the k - numCertain budget.
func (h *ResultHeap) trimUncertain() {
	room := h.k - len(h.certain)
	if room < 0 {
		room = 0
	}
	if len(h.uncertain) > room {
		h.uncertain = h.uncertain[:room]
	}
}

// Entries returns the heap content in order: certain entries ascending by
// distance, then uncertain entries ascending (the layout of Table 1).
func (h *ResultHeap) Entries() []Candidate {
	out := make([]Candidate, 0, h.Len())
	out = append(out, h.certain...)
	out = append(out, h.uncertain...)
	return out
}

// CertainEntries returns the certified prefix in ascending distance order.
// Because the verified set is rank-prefix-closed (Lemma 3.7), entry i has
// exact rank i+1.
func (h *ResultHeap) CertainEntries() []Candidate {
	return append([]Candidate(nil), h.certain...)
}

// CertainView is CertainEntries without the copy: the returned slice aliases
// the heap's backing storage and is valid only until the next Add or Reset.
// Callers that retain the entries past that point must copy them (or use
// CertainEntries). It exists so the resolver hot path can stage a result
// without allocating.
func (h *ResultHeap) CertainView() []Candidate { return h.certain }

// State classifies the heap per §3.3.
func (h *ResultHeap) State() HeapState {
	nc, nu := len(h.certain), len(h.uncertain)
	switch {
	case nc == 0 && nu == 0:
		return StateEmpty
	case h.Full() && nc > 0 && nu > 0:
		return StateFullMixed
	case h.Full() && nc == 0:
		return StateFullUncertain
	case h.Full() && nu == 0:
		// k certain entries: the query is complete; no bounds are needed,
		// but classify as certain-only for symmetry.
		return StateNotFullCertain
	case nc > 0 && nu > 0:
		return StateNotFullMixed
	case nc > 0:
		return StateNotFullCertain
	default:
		return StateNotFullUncertain
	}
}

// Bounds derives the branch-expanding bounds of §3.3 from the heap state:
//
//   - upper bound — available when H is full: the distance of the last
//     (farthest) entry. No true kNN member can be farther, so the server
//     discards every MBR with MINDIST above it (upward pruning).
//   - lower bound — available when at least one certain entry exists: the
//     distance D_ct of the last certain entry. Every POI within the circle
//     C_r of that radius is already known at the client, so the server skips
//     POIs inside it and prunes every MBR with MAXDIST below it (downward
//     pruning).
func (h *ResultHeap) Bounds() nn.Bounds {
	var b nn.Bounds
	if len(h.certain) > 0 {
		b.HasLower = true
		b.Lower = h.certain[len(h.certain)-1].Dist
	}
	if h.Full() {
		b.HasUpper = true
		b.Upper = math.Max(h.lastDist(), b.Lower)
	}
	return b
}

// UpperBoundFor returns a valid branch-expanding upper bound for a k-NN
// query derived from this heap even when the heap was sized larger than k
// (e.g. at cache capacity): the k-th smallest distance among the held
// entries. Since the heap holds distinct POIs, the true d_k cannot exceed
// it. ok is false when fewer than k entries are held.
func (h *ResultHeap) UpperBoundFor(k int) (float64, bool) {
	if h.Len() < k || k <= 0 {
		return 0, false
	}
	dists := h.dists[:0]
	for _, c := range h.certain {
		dists = append(dists, c.Dist)
	}
	for _, c := range h.uncertain {
		dists = append(dists, c.Dist)
	}
	h.dists = dists
	sort.Float64s(dists)
	return dists[k-1], true
}

func (h *ResultHeap) lastDist() float64 {
	if len(h.uncertain) > 0 {
		return h.uncertain[len(h.uncertain)-1].Dist
	}
	if len(h.certain) > 0 {
		return h.certain[len(h.certain)-1].Dist
	}
	return 0
}
