package parallel

// minIndexPollStride is how many iterations a ReduceMinIndex chunk scans
// between polls of the shared winner cell. Polling is a single atomic load
// of a mostly-read cache line, but for very cheap predicates even that is
// worth amortizing.
const minIndexPollStride = 64

// ReduceMinIndex returns the smallest index i in [lo, hi) with pred(i)
// true; ok is false when no index qualifies. Indices must be non-negative.
//
// It is the reservation step of a deterministic reserve/commit round
// (GBBS-style): every index in the range races to reserve a shared
// priority-write cell (PriorityCell) with its own index as the priority,
// and the smallest reservation wins. Unlike a tree reduction (Reduce),
// which evaluates every predicate, chunks consult the cell before and
// during their scan and abandon work that can no longer win, so the
// expected number of predicate evaluations is proportional to the
// winning index's position, not the range width, while the result stays
// deterministic (always the minimum). Determinism survives the stealing
// scheduler because it never depends on which lane runs a chunk or in what
// order: the cell keeps the minimum over every reservation that fired, and
// pruning only skips indices strictly above an already-reserved one, which
// can never be the final winner (see DESIGN.md).
//
// pred is called concurrently from pool workers and may be skipped for
// indices above the winner; it must be safe for concurrent use and must
// not mutate shared state. grain bounds the chunk size as in ForGrain
// (grain <= 0 selects DefaultGrain); ranges below one grain run inline on
// the caller with a serial early-exit scan.
func ReduceMinIndex(lo, hi, grain int, pred func(i int) bool) (idx int, ok bool) {
	n := hi - lo
	if n <= 0 {
		return 0, false
	}
	nb := chunksFor(n, grain)
	if nb <= 1 || MaxProcs() == 1 {
		for i := lo; i < hi; i++ {
			if pred(i) {
				return i, true
			}
		}
		return 0, false
	}
	var winner PriorityCell
	runLoop(nb, func(b int) {
		s, e := chunkBounds(lo, hi, b, nb)
		if w, reserved := winner.Load(); reserved && w < int64(s) {
			return // an earlier chunk already holds a smaller reservation
		}
		for i := s; i < e; i++ {
			if (i-s)%minIndexPollStride == 0 {
				if w, reserved := winner.Load(); reserved && w < int64(i) {
					return
				}
			}
			if pred(i) {
				winner.Write(int64(i))
				return
			}
		}
	})
	if w, reserved := winner.Load(); reserved {
		return int(w), true
	}
	return 0, false
}

// ScanMinIndexWindows is ReduceMinIndex over doubling windows: [lo, hi) is
// probed in disjoint windows of width w0, 2·w0, 4·w0, ... (the last one
// clipped to hi), stopping at the first window that holds a reserved
// index. The expected number of predicate evaluations is proportional to
// the winning index's distance from lo rather than the range width, while
// the result stays the deterministic minimum. onWindow, if non-nil, is
// called with each probed window's width before it is scanned — the
// deterministic full-window charge callers use for PRAM work accounting,
// independent of how many predicates the reservation actually evaluates.
func ScanMinIndexWindows(lo, hi, w0 int, onWindow func(width int), pred func(i int) bool) (idx int, ok bool) {
	if w0 < 1 {
		w0 = 1
	}
	w := w0
	for s := lo; s < hi; {
		e := s + w
		if e > hi {
			e = hi
		}
		if onWindow != nil {
			onWindow(e - s)
		}
		if idx, ok := ReduceMinIndex(s, e, 0, pred); ok {
			return idx, true
		}
		s = e
		w *= 2
	}
	return 0, false
}
