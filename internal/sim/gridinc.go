package sim

// Incremental maintenance of the hostGrid CSR index.
//
// A full counting rebuild (grid.Index.Build, the construction path) touches
// every host twice per step (count, place) no matter how many actually
// changed cell. At realistic velocities a host crosses a cell boundary only
// every few steps, so the per-step moved-host delta — every (host, fromCell,
// toCell) whose CellIndex changed — is a small fraction of the population
// and most buckets are untouched. applyDelta reshapes the index around that
// delta instead of rebuilding it:
//
//  1. the distinct affected cells (every from and to) are radix-sorted and
//     the movers are grouped by destination cell;
//  2. start offsets shift by the running membership delta, which is zero
//     outside the span of affected cells because the host count is constant;
//  3. the new entries array is assembled in a second buffer: the unchanged
//     runs between affected buckets are block-copied at their shifted
//     offsets, and each affected bucket is written as a sorted merge of its
//     stayers (old entries still assigned to the cell) and joiners (movers
//     arriving there, already in ascending host order);
//  4. the buffers swap.
//
// Double-buffering is what makes step 3 embarrassingly parallel: every copy
// reads the intact old array and writes a disjoint slice of the new one, so
// the copy units can be sharded across workers with no ordering constraints
// (an in-place variant would need a strict run-move schedule). The result is
// byte-identical to a full counting rebuild over the same cell assignment —
// buckets ascending by host index, cells dense in row-major order — which
// TestIncrementalGridMatchesFullRebuild and FuzzApplyDelta pin. The output
// depends only on the movers list, which callers assemble in ascending host
// order whatever the movement worker count.

// moverRec records one host whose grid cell changed during a movement step.
type moverRec struct {
	host, from, to int32
}

// deltaScratch holds the reusable buffers of applyDelta. All slices are
// length-managed per call; steady-state applyDelta performs no allocations.
type deltaScratch struct {
	touch    []int32 // per cell: slot+1 into affected while a delta is applied
	affected []int32 // sorted distinct cells with membership changes
	radixBuf []int32 // radix sort ping-pong buffer
	alt      []int32 // entries ping-pong buffer

	joiners   []int32 // mover hosts grouped by destination slot, host-ascending
	joinStart []int32 // per slot: offset of its joiners (len nSlots+1)

	oldLo    []int32 // per slot: old bucket start
	oldHi    []int32 // per slot: old bucket end
	newLo    []int32 // per slot: new bucket start
	newCount []int32 // per slot: new bucket size
	runShift []int32 // per slot: shift of the unchanged run preceding the bucket
	delta    []int32 // per slot: joiners - leavers
}

// grow returns s resized to n, reallocating only when capacity is exceeded.
func grow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// radixSortInt32 sorts non-negative int32 keys ascending with a 4-pass LSB
// byte radix, using (and possibly replacing) scratch as the ping-pong buffer.
// It returns the sorted slice and the scratch buffer for reuse.
func radixSortInt32(keys, scratch []int32) (sorted, buf []int32) {
	scratch = grow(scratch, len(keys))
	var counts [256]int32
	for shift := uint(0); shift < 32; shift += 8 {
		for i := range counts {
			counts[i] = 0
		}
		for _, k := range keys {
			counts[uint8(k>>shift)]++
		}
		if counts[uint8(keys[0]>>shift)] == int32(len(keys)) {
			continue // all keys share this byte: pass is a no-op
		}
		pos := int32(0)
		for i, n := range counts {
			counts[i] = pos
			pos += n
		}
		for _, k := range keys {
			b := uint8(k >> shift)
			scratch[counts[b]] = k
			counts[b]++
		}
		keys, scratch = scratch, keys
	}
	return keys, scratch
}

// applyDelta updates the CSR index for the given moved-host delta. cells must
// hold every host's new cell (as maintained by the movement phase); movers
// must list exactly the hosts whose cell changed, in ascending host order,
// with from/to matching the previous and current cells values. workers > 1
// shards the copy phase.
func (g *hostGrid) applyDelta(cells []int32, movers []moverRec, workers int) {
	if len(movers) == 0 {
		return
	}
	sc := &g.delta
	if sc.touch == nil {
		sc.touch = make([]int32, g.NumCells())
	}

	// Distinct affected cells, sorted. The touch table doubles as the
	// membership test here and the cell→slot map below; it is wiped at the
	// end so the next delta starts clean.
	sc.affected = sc.affected[:0]
	for _, m := range movers {
		if sc.touch[m.from] == 0 {
			sc.touch[m.from] = 1
			sc.affected = append(sc.affected, m.from)
		}
		if sc.touch[m.to] == 0 {
			sc.touch[m.to] = 1
			sc.affected = append(sc.affected, m.to)
		}
	}
	sc.affected, sc.radixBuf = radixSortInt32(sc.affected, sc.radixBuf)
	nSlots := len(sc.affected)
	for s, c := range sc.affected {
		sc.touch[c] = int32(s) + 1
	}

	// Group joiners by destination slot with a stable counting pass: movers
	// arrive in ascending host order, so each slot's joiners stay ascending.
	sc.joinStart = grow(sc.joinStart, nSlots+1)
	sc.delta = grow(sc.delta, nSlots)
	for s := 0; s < nSlots; s++ {
		sc.joinStart[s] = 0
		sc.delta[s] = 0
	}
	for _, m := range movers {
		sc.joinStart[sc.touch[m.to]-1]++
		sc.delta[sc.touch[m.to]-1]++
		sc.delta[sc.touch[m.from]-1]--
	}
	pos := int32(0)
	for s := 0; s < nSlots; s++ {
		n := sc.joinStart[s]
		sc.joinStart[s] = pos
		pos += n
	}
	sc.joinStart[nSlots] = pos
	sc.joiners = grow(sc.joiners, len(movers))
	cursor := grow(sc.newCount, nSlots) // borrow newCount as the placement cursor
	copy(cursor, sc.joinStart[:nSlots])
	for _, m := range movers {
		s := sc.touch[m.to] - 1
		sc.joiners[cursor[s]] = m.host
		cursor[s]++
	}

	// Walk the affected cells in index order: capture each bucket's old
	// interval, compute its new offset and size, record the shift of the
	// unchanged run preceding it, and rewrite the start offsets. The running
	// shift returns to zero past the last affected cell (the population size
	// is constant), so the tail run and every start offset after it are
	// untouched.
	sc.oldLo = grow(sc.oldLo, nSlots)
	sc.oldHi = grow(sc.oldHi, nSlots)
	sc.newLo = grow(sc.newLo, nSlots)
	sc.runShift = grow(sc.runShift, nSlots)
	shift := int32(0)
	prev := int32(-1)
	for s := 0; s < nSlots; s++ {
		c := sc.affected[s]
		lo, hi := g.Start[c], g.Start[c+1]
		sc.oldLo[s], sc.oldHi[s] = lo, hi
		sc.runShift[s] = shift
		sc.newLo[s] = lo + shift
		if shift != 0 {
			for cc := prev + 1; cc < c; cc++ {
				g.Start[cc] += shift
			}
		}
		g.Start[c] = lo + shift
		shift += sc.delta[s]
		prev = c
	}
	sc.newCount = cursor[:nSlots]
	for s := 0; s < nSlots; s++ {
		sc.newCount[s] = (sc.oldHi[s] - sc.oldLo[s]) + sc.delta[s]
	}

	// Assemble the new entries array in the ping-pong buffer. The work is cut
	// into 2*nSlots+1 units laid out in new-array order: run s (the unchanged
	// block before affected bucket s), bucket s, ..., tail run. Every unit
	// reads the old array and writes a disjoint interval of the new one, so
	// the units shard across workers freely.
	sc.alt = grow(sc.alt, len(g.Entries))
	nUnits := 2*nSlots + 1
	copyUnit := func(u int) {
		if u == 2*nSlots { // tail run, never shifted
			lo := sc.oldHi[nSlots-1]
			copy(sc.alt[lo:], g.Entries[lo:])
			return
		}
		s := u / 2
		if u%2 == 0 { // run before bucket s
			lo := int32(0)
			if s > 0 {
				lo = sc.oldHi[s-1]
			}
			hi := sc.oldLo[s]
			if lo < hi {
				d := sc.runShift[s]
				copy(sc.alt[lo+d:hi+d], g.Entries[lo:hi])
			}
			return
		}
		// Bucket s: merge stayers with joiners, both ascending by host.
		c := sc.affected[s]
		dst := sc.alt[sc.newLo[s] : sc.newLo[s]+sc.newCount[s]]
		old := g.Entries[sc.oldLo[s]:sc.oldHi[s]]
		jn := sc.joiners[sc.joinStart[s]:sc.joinStart[s+1]]
		k := 0
		j := 0
		for _, h := range old {
			if cells[h] != c {
				continue // leaver
			}
			for j < len(jn) && jn[j] < h {
				dst[k] = jn[j]
				k++
				j++
			}
			dst[k] = h
			k++
		}
		for j < len(jn) {
			dst[k] = jn[j]
			k++
			j++
		}
	}
	if workers > 1 && nUnits >= 4*workers {
		shards := splitRange(nUnits, workers)
		runWorkers(len(shards), func(s int) {
			for u := shards[s][0]; u < shards[s][1]; u++ {
				copyUnit(u)
			}
		})
	} else {
		for u := 0; u < nUnits; u++ {
			copyUnit(u)
		}
	}
	g.Entries, sc.alt = sc.alt, g.Entries

	// Wipe the touch table for the next delta.
	for _, c := range sc.affected {
		sc.touch[c] = 0
	}
}
