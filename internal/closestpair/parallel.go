package closestpair

import (
	"math"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/hashtable"
	"repro/internal/parallel"
)

// parGrid is the concurrent grid used by ParIncremental: cells live in the
// lock-free hash table so whole prefixes can be inserted in parallel and
// checked concurrently. A cell maps to its newest point only; next links
// every point to the point inserted into its cell before it (-1 ends the
// list), so an insert is one allocation-free table write.
type parGrid struct {
	r     float64
	cells *hashtable.LockFreeInline[uint64, int32]
	next  []int32
}

// newParGrid returns an empty grid with cell side r over next, which must
// have room for every point index the grid will hold. A rebuild may hand
// the previous grid's next to its successor: an insert writes its point's
// link before any probe can reach it.
func newParGrid(r float64, next []int32) *parGrid {
	// Identity hasher: the lock-free table applies its own finalizing
	// Mix64 to spread the packed cell coordinates.
	return &parGrid{
		r: r,
		cells: hashtable.NewLockFreeInline[uint64, int32](len(next),
			func(k uint64) uint64 { return k }, hashtable.EncInt32, hashtable.DecInt32),
		next: next,
	}
}

func (g *parGrid) insert(pts []geom.Point, i int32) {
	qx, qy := quantize(pts[i], g.r)
	// Update runs the callback exactly once, under the slot's write lock,
	// so concurrent inserts into one cell each link to the head they
	// displace and no point is lost.
	g.cells.Update(cellKey(qx, qy), func(head int32, ok bool) int32 {
		g.next[i] = cellHead(head, ok)
		return i
	})
}

// cellHead is a cell's newest point, or -1 (the list terminator) when the
// cell is empty.
func cellHead(j int32, ok bool) int32 {
	if !ok {
		return -1
	}
	return j
}

// nearestBefore returns the minimum distance from pts[i] to 3x3-neighborhood
// points with index strictly less than i, and the argmin (-1 if none; ties
// go to the smaller index, so the answer does not depend on list order).
func (g *parGrid) nearestBefore(pts []geom.Point, i int32, checks *int64) (float64, int32) {
	qx, qy := quantize(pts[i], g.r)
	best, bestJ := math.Inf(1), int32(-1)
	for dx := int64(-1); dx <= 1; dx++ {
		for dy := int64(-1); dy <= 1; dy++ {
			for j := cellHead(g.cells.Load(cellKey(qx+dx, qy+dy))); j >= 0; j = g.next[j] {
				if j >= i {
					continue
				}
				*checks++
				if d := geom.Dist(pts[i], pts[j]); closer(d, j, best, bestJ) {
					best, bestJ = d, j
				}
			}
		}
	}
	return best, bestJ
}

// ParIncremental runs the Type 2 parallel algorithm (Theorem 5.2).
//
// Iterations are processed in doubling prefixes. Unlike linear programming,
// where an iteration's special check depends only on the current optimum,
// the closest-pair check for point k depends on all points before k, so the
// sub-round (a) bulk-inserts the whole remaining prefix into the concurrent
// grid in parallel, (b) checks every prefix point against its 3x3
// neighborhood restricted to smaller indices — exactly the sequential
// check — and (c) takes the earliest special iteration with a parallel min
// reduction, shrinks r, and rebuilds the grid. The result and the sequence
// of special iterations are identical to the sequential algorithm's.
func ParIncremental(pts []geom.Point) (Result, Stats) {
	n := len(pts)
	if n < 2 {
		panic("closestpair: need at least two points")
	}
	var st Stats
	var checks atomic.Int64
	res := Result{I: 0, J: 1, Dist: geom.Dist(pts[0], pts[1])}
	checks.Add(1)
	st.Special++ // iteration 1 defines r, as in the sequential count
	next := make([]int32, n)
	var g *parGrid
	rebuild := func(upto int) {
		g = newParGrid(res.Dist, next)
		// Inserts are cheap and uniform: grain 128 — claim traffic is
		// lane-local on the stealing pool, so half the old 256 grain buys
		// rebalance headroom for hot grid cells at no shared-counter cost.
		parallel.ForGrain(0, upto+1, 128, func(k int) { g.insert(pts, int32(k)) })
		st.CellProbes += int64(upto + 1)
	}

	j := n // a duplicate pair ends the run, as in Incremental
	if res.Dist > 0 {
		rebuild(1)
		j = 2
	}
	for hi := 4; j < n; hi *= 2 {
		if hi > n {
			hi = n
		}
		st.Rounds++
		for j < hi {
			st.SubRounds++
			// (a) Insert the remaining prefix in parallel.
			parallel.ForGrain(j, hi, 128, func(k int) { g.insert(pts, int32(k)) })
			st.CellProbes += int64(hi-j) * 10 // insert + 3x3 check per point
			// (b)+(c) Earliest iteration whose true nearest-earlier
			// distance beats r.
			dist := make([]float64, hi-j)
			arg := make([]int32, hi-j)
			blockChecks := make([]int64, hi-j)
			// Grid-probe counts are skewed by local density: grain 32 lets
			// thieves split the crowded cells' ranges finer.
			parallel.ForGrain(j, hi, 32, func(k int) {
				d, a := g.nearestBefore(pts, int32(k), &blockChecks[k-j])
				dist[k-j], arg[k-j] = d, a
			})
			checks.Add(parallel.Sum(blockChecks))
			// Reserve-style earliest-true search: the distances are already
			// materialized, so the predicate is a cheap array read and
			// pruning skips comparisons that cannot win.
			l, ok := parallel.ReduceMinIndex(j, hi, 0,
				func(k int) bool { return dist[k-j] < res.Dist })
			if !ok {
				j = hi
				break
			}
			st.Special++
			res = Result{I: int(arg[l-j]), J: l, Dist: dist[l-j]}
			if res.Dist == 0 {
				j = n
				break
			}
			rebuild(l)
			j = l + 1
		}
	}
	st.DistChecks = checks.Load()
	if res.I > res.J {
		res.I, res.J = res.J, res.I
	}
	return res, st
}
