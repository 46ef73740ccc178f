package geom

import "math"

// preparedBound is the forward error bound of PreparedCircle's filter,
// a semi-static filter in the sense of Devillers and Pion ("Efficient
// exact geometric predicates for Delaunay triangulations", ALENEX 2003),
// derived the way Shewchuk (1997) derives stage A's bound.
//
// Exact values are upper case, computed ones lower case; u = epsilon =
// 2^-53. Every rounded operation gives x(1+δ) with |δ| ≤ u, and a
// product of k such factors is 1+θ_k with |θ_k| ≤ γ_k = ku/(1-ku). With
// A = a-c, B = b-c and D' = d-c exact and La = |A|², Lb = |B|², Ld = |D'|²:
//
//	a' = A(1+δ) per coordinate, and la = La(1+θ4) (two squares and one
//	  sum of nonnegative terms);
//	p = fl(fl(la·b'y) - fl(a'y·lb)) = La·By(1+θ7) - Ay·Lb(1+θ7'), so
//	  |p - P| ≤ γ7·Pp with Pp = |La·By| + |Ay·Lb|; q alike with Qp;
//	t1 = fl(d'x·p) = D'x·[La·By(1+θ9) - Ay·Lb(1+θ9')], so
//	  |t1 - T1| ≤ γ9·|D'x|·Pp; t2 alike with |D'y|·Qp;
//	r = Ay·Bx(1+θ4) - Ax·By(1+θ4'), ld = Ld(1+θ4), so
//	  |t3 - T3| ≤ γ9·Ld·Rp with Rp = |Ay·Bx| + |Ax·By|.
//
// Each term is off by at most γ9 (about 9u) of its own permanent, and
// |t_i| ≤ (1+γ9)·perm_i. The two final additions fl(fl(t1+t2)+t3) add at
// most γ2·(|t1|+|t2|+|t3|), so with Perm = |D'x|·Pp + |D'y|·Qp + Ld·Rp
//
//	|det - Det| ≤ (γ9 + γ2·(1+γ9))·Perm = (11u + 103u² + O(u³))·Perm.
//
// The permanent is itself computed from rounded values: every term is
// nonnegative and carries at most 11 roundings, so Perm ≤ perm·(1-u)^-11,
// and the product bound·perm loses one more factor (1-u). The filter is
// therefore sound for any coefficient at least
// (11u + 103u²)·(1-u)^-12 + O(u³) = 11u + 235u² + O(u³); (11 + 256u)·u
// covers it, exactly representable, with 21u² to spare for the
// third-order terms. A fused multiply-add the compiler may form only
// drops roundings, so the bound holds with or without one.
//
// The error model needs every product to stay normal and finite. With
// every atom (a', b', d' coordinates) zero or of binary exponent in
// [-windowExp, windowExp] (inWindow), every nonzero value above, bound
// included, lies between 2^-904 and 2^808, so neither underflow nor
// overflow occurs; atoms outside the window take the full predicate.
const preparedBound = (11 + 256*epsilon) * epsilon

// PreparedCircle is the circumcircle of a counterclockwise triangle
// (a, b, c) prepared for many InCircle tests against it. Translated to
// corner c (a' = a-c, b' = b-c, la = |a'|², lb = |b'|²), InCircle(a, b,
// c, d) has the sign of
//
//	det = d'x·p + d'y·q + |d'|²·r,    d' = d-c,
//
// with p = la·b'y - a'y·lb, q = a'x·lb - la·b'x and r = a'y·b'x - a'x·b'y
// computed once. A test then costs two differences, nine products and a
// comparison against preparedBound times its permanent. The Delaunay
// engines build one per new triangle, whose Fact 4.1 merge tests every
// candidate point against that one circle.
type PreparedCircle struct {
	a, b, c    Point
	p, q, r    float64
	pp, qp, rp float64 // permanents of p, q and r
	ok         bool    // a' and b' lie in the exponent window
}

// PrepareCircle returns the prepared circumcircle of the counterclockwise
// triangle (a, b, c).
//
//ridt:noalloc
func PrepareCircle(a, b, c Point) PreparedCircle {
	pc := PreparedCircle{a: a, b: b, c: c}
	ax, ay := a.X-c.X, a.Y-c.Y
	bx, by := b.X-c.X, b.Y-c.Y
	if !(inWindow(ax) && inWindow(ay) && inWindow(bx) && inWindow(by)) {
		return pc
	}
	la := ax*ax + ay*ay
	lb := bx*bx + by*by
	p1, p2 := la*by, ay*lb
	q1, q2 := ax*lb, la*bx
	r1, r2 := ay*bx, ax*by
	pc.p, pc.pp = p1-p2, math.Abs(p1)+math.Abs(p2)
	pc.q, pc.qp = q1-q2, math.Abs(q1)+math.Abs(q2)
	pc.r, pc.rp = r1-r2, math.Abs(r1)+math.Abs(r2)
	pc.ok = true
	return pc
}

// InCircleStats returns InCircle(a, b, c, d) for the prepared triangle
// (a, b, c), with optional instrumentation. A call the prepared filter
// decides counts as a call, not an exact one. Input the filter cannot
// decide, or whose differences leave the exponent window (NaN and
// infinities included), goes to the full InCircleStats, which counts it
// and answers it as it would have without the filter.
//
//ridt:noalloc
func (pc *PreparedCircle) InCircleStats(d Point, st *PredicateStats) int {
	dx, dy := d.X-pc.c.X, d.Y-pc.c.Y
	if pc.ok && inWindow(dx) && inWindow(dy) {
		det, permanent := pc.filter(dx, dy)
		if errBound := preparedBound * permanent; det > errBound || -det > errBound {
			st.addInCircle(false)
			return sign(det)
		}
	}
	return InCircleStats(pc.a, pc.b, pc.c, d, st)
}

// filter returns the filter's determinant and permanent for the query
// d' = (dx, dy) = d - c.
//
//ridt:noalloc
func (pc *PreparedCircle) filter(dx, dy float64) (det, permanent float64) {
	ld := dx*dx + dy*dy
	return (dx*pc.p + dy*pc.q) + ld*pc.r, (math.Abs(dx)*pc.pp + math.Abs(dy)*pc.qp) + ld*pc.rp
}
