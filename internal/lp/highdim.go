package lp

import (
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/linalg"
)

// This file implements the d-dimensional extension the paper sketches in
// Section 5.1: a randomized incremental d-dimensional LP that recursively
// calls a (d-1)-dimensional LP on the boundary of each violated constraint,
// reusing the same random constraint order at every level. Expected work is
// O(d! n); the parallel version applies the Type 2 prefix schedule at every
// recursion level, for O(d! log^{d-1} n) depth whp.

// ConstraintD is the halfplane A·x <= B in len(A) dimensions.
type ConstraintD struct {
	A []float64
	B float64
}

// ViolatesD reports whether x violates the constraint.
func (c ConstraintD) ViolatesD(x []float64) bool {
	return dot(c.A, x) > c.B+1e-9
}

func dot(a, x []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * x[i]
	}
	return s
}

// SolveD minimizes obj·x subject to cons, within the box |x_i| <= Bound,
// processing constraints in slice order (pre-shuffled by the caller).
// It returns the optimum point, feasibility, and the number of constraint
// evaluations performed (the work measure).
func SolveD(cons []ConstraintD, obj []float64) (x []float64, feasible bool, work int64) {
	x, feasible = solveRec(cons, obj, &work, false)
	return x, feasible, work
}

// ParSolveD is SolveD with the Type 2 prefix schedule applied at every
// recursion level: violation checks over a prefix run in parallel and the
// earliest violated constraint recurses. The result matches SolveD.
func ParSolveD(cons []ConstraintD, obj []float64) (x []float64, feasible bool, work int64) {
	x, feasible = solveRec(cons, obj, &work, true)
	return x, feasible, work
}

// boxCorner returns the corner of [-Bound, Bound]^d minimizing obj.
func boxCorner(obj []float64) []float64 {
	x := make([]float64, len(obj))
	for i, c := range obj {
		if c > 0 {
			x[i] = -Bound
		} else {
			x[i] = Bound
		}
	}
	return x
}

func solveRec(cons []ConstraintD, obj []float64, work *int64, par bool) ([]float64, bool) {
	d := len(obj)
	if d == 1 {
		return solve1Dim(cons, obj[0], work)
	}
	x := boxCorner(obj)
	infeasible := false

	handleViolation := func(i int) bool {
		sub, subObj, lift, ok := projectOnto(cons[i], cons[:i], obj)
		if !ok {
			// The tight constraint has a (numerically) zero normal: it is
			// either vacuous or contradictory.
			return cons[i].B >= -1e-9
		}
		y, feasible := solveRec(sub, subObj, work, par)
		if !feasible {
			return false
		}
		x = lift(y)
		return true
	}

	if !par {
		for i := range cons {
			*work++
			if !cons[i].ViolatesD(x) {
				continue
			}
			if !handleViolation(i) {
				return nil, false
			}
		}
		if infeasible {
			return nil, false
		}
		return x, true
	}

	var aWork atomic.Int64
	// The optimum x moves only when a violated constraint commits, so the
	// hooks keep the verdict-stability contract at every recursion level.
	hooks := core.Type2Hooks{
		RunFirst: func() {
			if len(cons) == 0 {
				return
			}
			aWork.Add(1)
			if cons[0].ViolatesD(x) && !handleViolation(0) {
				infeasible = true
			}
		},
		IsSpecial: func(k int) bool {
			if infeasible {
				return false
			}
			return cons[k].ViolatesD(x)
		},
		RunRegular: func(lo, hi int) {},
		RunSpecial: func(k int) {
			if infeasible {
				return
			}
			if !handleViolation(k) {
				infeasible = true
			}
		},
	}
	t2 := core.RunType2(len(cons), hooks)
	// Charge the schedule's deterministic window accounting rather than
	// per-call counts, which reservation pruning makes scheduling-dependent.
	*work += aWork.Load() + t2.Checks
	if infeasible {
		return nil, false
	}
	return x, true
}

// solve1Dim clips the segment [-Bound, Bound] by every constraint and
// returns the endpoint minimizing obj1*x. The clip loop is a parallel
// reduction in spirit; sequential here since d=1 subproblems are tiny.
func solve1Dim(cons []ConstraintD, obj1 float64, work *int64) ([]float64, bool) {
	lo, hi := -Bound, Bound
	for _, c := range cons {
		*work++
		a := c.A[0]
		if math.Abs(a) < 1e-12 {
			if c.B < -1e-9 {
				return nil, false
			}
			continue
		}
		t := c.B / a
		if a > 0 {
			if t < hi {
				hi = t
			}
		} else {
			if t > lo {
				lo = t
			}
		}
	}
	if lo > hi+1e-9 {
		return nil, false
	}
	if obj1 >= 0 {
		return []float64{lo}, true
	}
	return []float64{hi}, true
}

// projectOnto eliminates one variable using the tight constraint t
// (a·x = b), rewriting every earlier constraint, the box constraints of the
// eliminated variable, and the objective in the remaining d-1 variables.
// It returns the subproblem, the reduced objective, and a lift function
// mapping subspace solutions back to R^d.
func projectOnto(t ConstraintD, earlier []ConstraintD, obj []float64) (sub []ConstraintD, subObj []float64, lift func([]float64) []float64, ok bool) {
	d := len(obj)
	// Eliminate the variable with the largest |coefficient| for stability.
	k, best := -1, 0.0
	for j, a := range t.A {
		if math.Abs(a) > best {
			best = math.Abs(a)
			k = j
		}
	}
	if k < 0 || best < 1e-12 {
		return nil, nil, nil, false
	}
	ak := t.A[k]
	// x_k = (t.B - Σ_{j≠k} t.A_j x_j) / ak.
	reduceConstraint := func(a []float64, b float64) ConstraintD {
		na := make([]float64, 0, d-1)
		nb := b - a[k]*t.B/ak
		for j := 0; j < d; j++ {
			if j == k {
				continue
			}
			na = append(na, a[j]-a[k]*t.A[j]/ak)
		}
		return ConstraintD{A: na, B: nb}
	}
	sub = make([]ConstraintD, 0, len(earlier)+2)
	for _, c := range earlier {
		sub = append(sub, reduceConstraint(c.A, c.B))
	}
	// Box constraints of the eliminated variable become real constraints:
	// x_k <= Bound and -x_k <= Bound.
	up := make([]float64, d)
	up[k] = 1
	dn := make([]float64, d)
	dn[k] = -1
	sub = append(sub, reduceConstraint(up, Bound), reduceConstraint(dn, Bound))

	subObj = make([]float64, 0, d-1)
	for j := 0; j < d; j++ {
		if j == k {
			continue
		}
		subObj = append(subObj, obj[j]-obj[k]*t.A[j]/ak)
	}
	lift = func(y []float64) []float64 {
		x := make([]float64, d)
		yi := 0
		for j := 0; j < d; j++ {
			if j == k {
				continue
			}
			x[j] = y[yi]
			yi++
		}
		s := t.B
		for j := 0; j < d; j++ {
			if j != k {
				s -= t.A[j] * x[j]
			}
		}
		x[k] = s / ak
		return x
	}
	return sub, subObj, lift, true
}

// --- workloads and oracle ------------------------------------------------

// SphereTangentD returns n constraints tangent to (scaled spheres around)
// the origin in d dimensions: a = random unit vector, b = 1 + slack. The
// d-dimensional analog of TangentConstraints.
func SphereTangentD(rnd interface{ NormFloat64() float64 }, slack func() float64, n, d int) []ConstraintD {
	cons := make([]ConstraintD, n)
	for i := range cons {
		a := make([]float64, d)
		norm := 0.0
		for j := range a {
			a[j] = rnd.NormFloat64()
			norm += a[j] * a[j]
		}
		norm = math.Sqrt(norm)
		if norm < 1e-9 {
			norm = 1
			a[0] = 1
		}
		for j := range a {
			a[j] /= norm
		}
		cons[i] = ConstraintD{A: a, B: 1 + slack()}
	}
	return cons
}

// BruteForceD solves the LP by enumerating all d-subsets of constraint
// boundaries (plus box faces), solving each d×d linear system, and taking
// the best feasible vertex. O(n^d · d³); test oracle for small n and d.
func BruteForceD(cons []ConstraintD, obj []float64) (x []float64, feasible bool) {
	d := len(obj)
	all := make([]ConstraintD, 0, len(cons)+2*d)
	all = append(all, cons...)
	for j := 0; j < d; j++ {
		up := make([]float64, d)
		up[j] = 1
		dn := make([]float64, d)
		dn[j] = -1
		all = append(all, ConstraintD{A: up, B: Bound}, ConstraintD{A: dn, B: Bound})
	}
	isFeasible := func(p []float64) bool {
		for _, c := range all {
			if c.ViolatesD(p) {
				return false
			}
		}
		return true
	}
	var best []float64
	bestVal := math.Inf(1)
	consider := func(p []float64) {
		if p == nil || !isFeasible(p) {
			return
		}
		if v := dot(obj, p); v < bestVal {
			bestVal = v
			best = p
		}
	}
	idx := make([]int, d)
	var rec func(pos, start int)
	rec = func(pos, start int) {
		if pos == d {
			m := make([][]float64, d)
			rhs := make([]float64, d)
			for r, ci := range idx {
				m[r] = append([]float64(nil), all[ci].A...)
				rhs[r] = all[ci].B
			}
			consider(linalg.Solve(m, rhs))
			return
		}
		for ci := start; ci < len(all); ci++ {
			idx[pos] = ci
			rec(pos+1, ci+1)
		}
	}
	rec(0, 0)
	if best == nil {
		return nil, false
	}
	return best, true
}
