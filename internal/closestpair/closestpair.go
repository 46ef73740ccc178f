// Package closestpair implements Section 5.2 of the paper: the randomized
// incremental grid algorithm for the planar closest pair, its Type 2
// parallelization, and two non-incremental baselines (brute force and
// divide-and-conquer) for cross-checking and benchmarking.
//
// The incremental algorithm maintains a uniform grid with cell side r, the
// closest-pair distance among the inserted prefix. Inserting a point checks
// its 3x3 cell neighborhood (any point within distance < r lives there);
// if the minimum drops below r the iteration is special: r shrinks and the
// grid is rebuilt over the whole prefix. By backwards analysis the i-th
// iteration is special with probability at most 2/i, giving O(n) expected
// work and O(log n) dependence depth.
package closestpair

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// Result identifies the closest pair and its distance.
type Result struct {
	I, J int // indices into the input, I < J
	Dist float64
}

// Stats reports the counters of an incremental run.
type Stats struct {
	Special    int   // grid rebuilds (special iterations)
	DistChecks int64 // point-to-point distance evaluations
	CellProbes int64 // grid cell lookups and insertions (the O(1)-per-point work term)
	Rounds     int   // prefix rounds of the parallel schedule
	SubRounds  int
}

func cellKey(qx, qy int64) uint64 {
	return uint64(uint32(int32(qx)))<<32 | uint64(uint32(int32(qy)))
}

func quantize(p geom.Point, r float64) (int64, int64) {
	return int64(math.Floor(p.X / r)), int64(math.Floor(p.Y / r))
}

// closer reports whether candidate (d, j) beats the best so far: a smaller
// distance, or an equal one from a smaller index. Breaking ties by index
// makes the nearest earlier point independent of cell order, which differs
// between the sequential and the concurrent grids.
func closer(d float64, j int32, best float64, bestJ int32) bool {
	return d < best || d == best && j < bestJ
}

// seqGrid is the single-threaded grid used by Incremental.
type seqGrid struct {
	r     float64
	cells map[uint64][]int32
}

func newSeqGrid(r float64, capacity int) *seqGrid {
	return &seqGrid{r: r, cells: make(map[uint64][]int32, capacity)}
}

func (g *seqGrid) insert(pts []geom.Point, i int32) {
	qx, qy := quantize(pts[i], g.r)
	k := cellKey(qx, qy)
	g.cells[k] = append(g.cells[k], i)
}

// nearest returns the minimum distance from pts[i] to earlier points in the
// 3x3 neighborhood, and the index achieving it (-1 when the neighborhood is
// empty). checks counts distance evaluations.
func (g *seqGrid) nearest(pts []geom.Point, i int32, checks *int64) (float64, int32) {
	qx, qy := quantize(pts[i], g.r)
	best, bestJ := math.Inf(1), int32(-1)
	for dx := int64(-1); dx <= 1; dx++ {
		for dy := int64(-1); dy <= 1; dy++ {
			for _, j := range g.cells[cellKey(qx+dx, qy+dy)] {
				*checks++
				if d := geom.Dist(pts[i], pts[j]); closer(d, j, best, bestJ) {
					best, bestJ = d, j
				}
			}
		}
	}
	return best, bestJ
}

// Incremental runs the sequential incremental algorithm over the points in
// slice order (pre-shuffled by the caller for the probabilistic bounds).
// It requires n >= 2. The run ends at the first zero distance (a duplicated
// point): nothing can beat it, and a zero cell side would put every later
// point in one cell, making the rest of the run quadratic.
func Incremental(pts []geom.Point) (Result, Stats) {
	var st Stats
	n := len(pts)
	if n < 2 {
		panic("closestpair: need at least two points")
	}
	res := Result{I: 0, J: 1, Dist: geom.Dist(pts[0], pts[1])}
	st.DistChecks++
	st.Special++ // iteration 1 defines r
	if res.Dist == 0 {
		return res, st
	}
	g := newSeqGrid(res.Dist, n)
	g.insert(pts, 0)
	g.insert(pts, 1)
	st.CellProbes += 2
	for i := 2; i < n; i++ {
		d, j := g.nearest(pts, int32(i), &st.DistChecks)
		st.CellProbes += 9
		if d < res.Dist {
			// Special iteration: r shrinks; rebuild the grid over [0, i].
			st.Special++
			res = Result{I: int(j), J: i, Dist: d}
			if d == 0 {
				break
			}
			g = newSeqGrid(d, n)
			for k := 0; k <= i; k++ {
				g.insert(pts, int32(k))
			}
			st.CellProbes += int64(i + 1)
			continue
		}
		g.insert(pts, int32(i))
		st.CellProbes++
	}
	if res.I > res.J {
		res.I, res.J = res.J, res.I
	}
	return res, st
}

// BruteForce computes the closest pair in O(n^2). Test oracle.
func BruteForce(pts []geom.Point) Result {
	res := Result{I: -1, J: -1, Dist: math.Inf(1)}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if d := geom.Dist(pts[i], pts[j]); d < res.Dist {
				res = Result{I: i, J: j, Dist: d}
			}
		}
	}
	return res
}

// DivideAndConquer computes the closest pair with the classic O(n log n)
// strip algorithm: the deterministic baseline for the benchmarks.
func DivideAndConquer(pts []geom.Point) Result {
	n := len(pts)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	// A genuine comparison sort, not a dedup/group-by: the strip algorithm
	// needs total x-order, so neither a semisort nor the Delaunay
	// pair-rule dedup applies here (and this is the sequential baseline
	// on purpose). The incremental paths use the grid hash and never sort.
	sort.Slice(idx, func(a, b int) bool { return pts[idx[a]].X < pts[idx[b]].X })
	buf := make([]int32, n)
	res := Result{Dist: math.Inf(1)}
	var rec func(lo, hi int)
	rec = func(lo, hi int) {
		if hi-lo <= 3 {
			for i := lo; i < hi; i++ {
				for j := i + 1; j < hi; j++ {
					if d := geom.Dist(pts[idx[i]], pts[idx[j]]); d < res.Dist {
						res = Result{I: int(idx[i]), J: int(idx[j]), Dist: d}
					}
				}
			}
			sort.Slice(idx[lo:hi], func(a, b int) bool {
				return pts[idx[lo+a]].Y < pts[idx[lo+b]].Y
			})
			return
		}
		mid := (lo + hi) / 2
		midX := pts[idx[mid]].X
		rec(lo, mid)
		rec(mid, hi)
		// Merge by y into buf.
		i, j, k := lo, mid, lo
		for i < mid && j < hi {
			if pts[idx[i]].Y <= pts[idx[j]].Y {
				buf[k] = idx[i]
				i++
			} else {
				buf[k] = idx[j]
				j++
			}
			k++
		}
		for i < mid {
			buf[k] = idx[i]
			i++
			k++
		}
		for j < hi {
			buf[k] = idx[j]
			j++
			k++
		}
		copy(idx[lo:hi], buf[lo:hi])
		// Strip check.
		strip := buf[:0]
		for k := lo; k < hi; k++ {
			if math.Abs(pts[idx[k]].X-midX) < res.Dist {
				strip = append(strip, idx[k])
			}
		}
		for a := 0; a < len(strip); a++ {
			for b := a + 1; b < len(strip) && pts[strip[b]].Y-pts[strip[a]].Y < res.Dist; b++ {
				if d := geom.Dist(pts[strip[a]], pts[strip[b]]); d < res.Dist {
					res = Result{I: int(strip[a]), J: int(strip[b]), Dist: d}
				}
			}
		}
	}
	rec(0, n)
	if res.I > res.J {
		res.I, res.J = res.J, res.I
	}
	return res
}
