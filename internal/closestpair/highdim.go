package closestpair

import (
	"math"

	"repro/internal/hashtable"
	"repro/internal/parallel"
)

// This file implements the d-dimensional extension the paper notes for
// Section 5.2: the incremental grid algorithm generalizes to R^d with
// O(c_d n) expected work (c_d from the 3^d neighborhood) and the same
// O(log n) special-iteration structure.

// PointD is a point in R^d.
type PointD []float64

// DistD returns the Euclidean distance between p and q.
func DistD(p, q PointD) float64 {
	s := 0.0
	for i := range p {
		diff := p[i] - q[i]
		s += diff * diff
	}
	return math.Sqrt(s)
}

// cellKeyD hashes the quantized coordinates of p at cell side r.
func cellKeyD(p PointD, r float64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, x := range p {
		q := uint64(int64(math.Floor(x / r)))
		h = hashtable.Mix64(h ^ q)
	}
	return h
}

// neighborKeysD returns the hashes of the 3^d neighborhood cells of p.
func neighborKeysD(p PointD, r float64, buf []uint64) []uint64 {
	d := len(p)
	buf = buf[:0]
	offs := make([]int, d)
	for i := range offs {
		offs[i] = -1
	}
	q := make(PointD, d)
	for {
		for i := range q {
			q[i] = p[i] + float64(offs[i])*r
		}
		buf = append(buf, cellKeyD(q, r))
		// Increment the mixed-radix counter over {-1,0,1}^d.
		i := 0
		for ; i < d; i++ {
			offs[i]++
			if offs[i] <= 1 {
				break
			}
			offs[i] = -1
		}
		if i == d {
			return buf
		}
	}
}

// gridD is the d-dimensional concurrent grid, built like parGrid: a cell
// maps to its newest point and next links each point to its cell's
// previous one. Hash collisions between distinct cells are tolerated: a
// colliding cell only adds candidates to scan, never hides one, because
// the owning cell of any point within distance < r is among the 3^d
// neighbors and hashing is deterministic.
type gridD struct {
	r     float64
	cells *hashtable.LockFreeInline[uint64, int32]
	next  []int32
}

// newGridD returns an empty grid with cell side r over next (see
// newParGrid).
func newGridD(r float64, next []int32) *gridD {
	// cellKeyD is already FNV-mixed, and the lock-free table applies its
	// own finalizing mix, so the identity hasher is safe here.
	return &gridD{r: r, next: next,
		cells: hashtable.NewLockFreeInline[uint64, int32](len(next),
			func(k uint64) uint64 { return k }, hashtable.EncInt32, hashtable.DecInt32)}
}

func (g *gridD) insert(pts []PointD, i int32) {
	g.cells.Update(cellKeyD(pts[i], g.r), func(head int32, ok bool) int32 {
		g.next[i] = cellHead(head, ok)
		return i
	})
}

func (g *gridD) nearestBefore(pts []PointD, i int32, buf []uint64, checks *int64) (float64, int32, []uint64) {
	buf = neighborKeysD(pts[i], g.r, buf)
	best, bestJ := math.Inf(1), int32(-1)
	for _, k := range buf {
		for j := cellHead(g.cells.Load(k)); j >= 0; j = g.next[j] {
			if j >= i {
				continue
			}
			*checks++
			if d := DistD(pts[i], pts[j]); closer(d, j, best, bestJ) {
				best, bestJ = d, j
			}
		}
	}
	return best, bestJ, buf
}

// IncrementalD runs the sequential incremental algorithm in R^d over
// pre-shuffled points (n >= 2, uniform dimension). Like Incremental, it
// stops at the first zero distance.
func IncrementalD(pts []PointD) (Result, Stats) {
	n := len(pts)
	if n < 2 {
		panic("closestpair: need at least two points")
	}
	var st Stats
	res := Result{I: 0, J: 1, Dist: DistD(pts[0], pts[1])}
	st.DistChecks++
	st.Special++
	if res.Dist == 0 {
		return res, st
	}
	next := make([]int32, n)
	g := newGridD(res.Dist, next)
	g.insert(pts, 0)
	g.insert(pts, 1)
	var buf []uint64
	for i := 2; i < n; i++ {
		var d float64
		var j int32
		d, j, buf = g.nearestBefore(pts, int32(i), buf, &st.DistChecks)
		if d < res.Dist {
			st.Special++
			res = Result{I: int(j), J: i, Dist: d}
			if d == 0 {
				break
			}
			g = newGridD(d, next)
			for k := 0; k <= i; k++ {
				g.insert(pts, int32(k))
			}
			continue
		}
		g.insert(pts, int32(i))
	}
	if res.I > res.J {
		res.I, res.J = res.J, res.I
	}
	return res, st
}

// ParIncrementalD is the Type 2 parallel version in R^d, structured exactly
// like ParIncremental: bulk-insert the prefix, check every point against
// smaller-indexed neighbors, carve at the earliest special iteration.
func ParIncrementalD(pts []PointD) (Result, Stats) {
	n := len(pts)
	if n < 2 {
		panic("closestpair: need at least two points")
	}
	var st Stats
	res := Result{I: 0, J: 1, Dist: DistD(pts[0], pts[1])}
	st.DistChecks++
	st.Special++
	next := make([]int32, n)
	var g *gridD
	rebuild := func(upto int) {
		g = newGridD(res.Dist, next)
		// Inserts are cheap and uniform: grain 128 (see parallel.go — claim
		// traffic is lane-local on the stealing pool).
		parallel.ForGrain(0, upto+1, 128, func(k int) { g.insert(pts, int32(k)) })
	}

	j := n // a duplicate pair ends the run, as in IncrementalD
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
			parallel.ForGrain(j, hi, 128, func(k int) { g.insert(pts, int32(k)) })
			dist := make([]float64, hi-j)
			arg := make([]int32, hi-j)
			checks := make([]int64, hi-j)
			// Probe counts are skewed by local density (see parallel.go).
			parallel.ForGrain(j, hi, 32, func(k int) {
				d, a, _ := g.nearestBefore(pts, int32(k), nil, &checks[k-j])
				dist[k-j], arg[k-j] = d, a
			})
			st.DistChecks += parallel.Sum(checks)
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
	if res.I > res.J {
		res.I, res.J = res.J, res.I
	}
	return res, st
}

// BruteForceD computes the closest pair in R^d in O(n²·d). Test oracle.
func BruteForceD(pts []PointD) Result {
	res := Result{I: -1, J: -1, Dist: math.Inf(1)}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if d := DistD(pts[i], pts[j]); d < res.Dist {
				res = Result{I: i, J: j, Dist: d}
			}
		}
	}
	return res
}
