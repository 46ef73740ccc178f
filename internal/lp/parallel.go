package lp

import (
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/parallel"
)

// ParSolve runs the Type 2 parallel algorithm (Theorem 5.1): iterations
// are processed in doubling prefixes (Algorithm 1); each sub-round probes
// the live prefix against the current optimum with a parallel reservation
// (doubling windows, earliest violated constraint wins) and runs the
// winner's one-dimensional LP with a parallel min-reduction. The optimum
// moves only at special iterations — regular commits are no-ops — so the
// hooks keep core.Type2Hooks' verdict-stability contract.
func ParSolve(cons []Constraint, cx, cy float64) (Result, Stats) {
	var st Stats
	n := len(cons)
	x, y := initialOptimum(cx, cy)
	infeasible := false
	var sideTests, oneDim atomic.Int64

	hooks := core.Type2Hooks{
		RunFirst: func() {
			if n == 0 {
				return
			}
			sideTests.Add(1)
			if cons[0].Violates(x, y) {
				var w int64
				nx, ny, ok := solve1D(cons[0].Ax, cons[0].Ay, cons[0].B, nil, cx, cy, &w)
				oneDim.Add(w)
				if !ok {
					infeasible = true
					return
				}
				x, y = nx, ny
			}
		},
		IsSpecial: func(k int) bool {
			if infeasible {
				return false
			}
			return cons[k].Violates(x, y)
		},
		RunRegular: func(lo, hi int) {
			// Regular iterations do no work beyond the O(1) check already
			// performed by IsSpecial: the optimum is unchanged.
		},
		RunSpecial: func(k int) {
			if infeasible {
				return
			}
			// 1D LP over earlier constraints; the sequential clip loop is
			// replaced by a parallel interval reduction.
			nx, ny, ok := solve1DParallel(cons[k].Ax, cons[k].Ay, cons[k].B,
				cons[:k], cx, cy, &oneDim)
			if !ok {
				infeasible = true
				return
			}
			x, y = nx, ny
		},
	}
	t2 := core.RunType2(n, hooks)
	st.Special = t2.Special
	st.Rounds = t2.Rounds
	st.SubRounds = t2.SubRounds
	st.MaxProbe = t2.MaxProbe
	st.MaxRegular = t2.MaxRegular
	// Side tests are charged from the schedule's deterministic window
	// accounting (plus RunFirst's own test); the pooled reservation may
	// prune per-constraint calls, so counting those would be
	// scheduling-dependent.
	st.SideTests = sideTests.Load() + t2.Checks
	st.OneDimWork = oneDim.Load()
	if infeasible {
		return Result{Feasible: false}, st
	}
	return Result{Feasible: true, X: x, Y: y, Value: cx*x + cy*y}, st
}

// interval is a [lo, hi] parameter range plus a feasibility flag, the
// monoid element for the parallel 1D LP reduction.
type interval struct {
	lo, hi   float64
	feasible bool
}

// solve1DParallel mirrors solve1D but clips all constraints with a parallel
// reduction over per-constraint intervals (constant depth on the PRAM, a
// log-depth tree here).
func solve1DParallel(ax, ay, b float64, cons []Constraint, cx, cy float64, work *atomic.Int64) (float64, float64, bool) {
	var p0x, p0y, dx, dy float64
	if abs(ay) >= abs(ax) {
		p0x, p0y = 0, b/ay
		dx, dy = 1, -ax/ay
	} else {
		p0x, p0y = b/ax, 0
		dx, dy = -ay/ax, 1
	}
	clipOne := func(aAx, aAy, aB float64) interval {
		den := aAx*dx + aAy*dy
		num := aB - (aAx*p0x + aAy*p0y)
		const eps = 1e-12
		if abs(den) < eps {
			return interval{negInf, posInf, num >= -1e-9}
		}
		t := num / den
		if den > 0 {
			return interval{negInf, t, true}
		}
		return interval{t, posInf, true}
	}
	combine := func(a, b interval) interval {
		out := interval{max(a.lo, b.lo), min(a.hi, b.hi), a.feasible && b.feasible}
		if out.lo > out.hi+1e-9 {
			out.feasible = false
		}
		return out
	}
	box := combine(combine(clipOne(1, 0, Bound), clipOne(-1, 0, Bound)),
		combine(clipOne(0, 1, Bound), clipOne(0, -1, Bound)))
	work.Add(int64(len(cons)))
	iv := parallel.Reduce(0, len(cons), box,
		func(i int) interval { return clipOne(cons[i].Ax, cons[i].Ay, cons[i].B) },
		combine)
	if !iv.feasible || iv.lo > iv.hi+1e-9 {
		return 0, 0, false
	}
	slope := cx*dx + cy*dy
	t := iv.lo
	if slope < 0 {
		t = iv.hi
	}
	return p0x + t*dx, p0y + t*dy, true
}

var (
	posInf = math.Inf(1)
	negInf = math.Inf(-1)
)

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
