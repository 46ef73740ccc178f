// Package geom provides the planar geometric types and robust predicates
// used by the Delaunay triangulation, closest pair, linear programming and
// smallest-enclosing-disk algorithms.
//
// The two predicates the paper's algorithms rely on — Orient2D (line-side
// test) and InCircle (encroachment test, Algorithm 4's InCircle) — return
// exact signs through the adaptive stages of Shewchuk's "Adaptive
// Precision Floating-Point Arithmetic and Fast Robust Geometric
// Predicates" (1997):
//
//   - Stage A is a float64 evaluation with a forward error bound; it
//     decides almost every call on non-degenerate input.
//   - Stage B evaluates the determinant of the rounded coordinate
//     differences exactly, as an expansion (a sum of nonoverlapping
//     float64 components) built with error-free transforms: Two-Sum,
//     Two-Product through math.FMA, and Shewchuk's zero-eliminating
//     expansion sum and scale. When the differences are exact (their
//     tails are zero), as on dyadic input such as an exact lattice and
//     its bounding corners, this is the determinant itself.
//   - Stage C adds the first-order tail terms in floating point under a
//     second error bound.
//   - Stage D adds every tail term exactly, which gives the exact sign.
//
// The expansions live in fixed-size stack arrays, so no stage allocates.
// They are exact only while no product underflows or overflows, so each
// stage runs only when every coordinate difference and tail is zero or has
// its binary exponent within ±200 (the exponent window; see inWindow).
// Finite input beyond the window, which stage A's bound does not cover
// either, goes to math/big rational arithmetic: the one cold path left,
// kept for inputs such as subnormal or near-MaxFloat64 coordinates.
//
// Every product an error-free transform consumes is written float64(a*b).
// The Go spec allows a compiler to fuse x*y + z into one fused
// multiply-add, which Go 1.24 does on arm64 (not on amd64); the explicit
// conversion forces the rounding the transforms rely on.
package geom

import (
	"math"
	"math/big"
)

// Point is a point in the plane.
type Point struct {
	X, Y float64
}

// Sub returns p - q as a vector (represented as a Point).
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product of p and q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dist2 returns the squared Euclidean distance between p and q.
func Dist2(p, q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Dist returns the Euclidean distance between p and q.
func Dist(p, q Point) float64 { return math.Sqrt(Dist2(p, q)) }

// Machine epsilon for float64 (2^-53) and the static error-bound
// coefficients from Shewchuk's "Adaptive Precision Floating-Point
// Arithmetic and Fast Robust Geometric Predicates" (1997).
const (
	epsilon        = 1.0 / (1 << 53)
	ccwErrBoundA   = (3 + 16*epsilon) * epsilon
	inCircleBoundA = (10 + 96*epsilon) * epsilon
)

// PredicateStats counts predicate evaluations. The Exact counters count
// the calls that got past stage A, the float filter, whichever later stage
// decided them; the checkpoint header persists all four fields, and
// BenchmarkAblationPredicates reports the InCircle share. Counters are not
// atomic: use one instance per goroutine or accept approximate totals. A
// nil *PredicateStats is valid and records nothing.
type PredicateStats struct {
	Orient2DCalls int64
	Orient2DExact int64
	InCircleCalls int64
	InCircleExact int64
}

func (s *PredicateStats) addOrient(exact bool) {
	if s == nil {
		return
	}
	s.Orient2DCalls++
	if exact {
		s.Orient2DExact++
	}
}

func (s *PredicateStats) addInCircle(exact bool) {
	if s == nil {
		return
	}
	s.InCircleCalls++
	if exact {
		s.InCircleExact++
	}
}

// Merge adds other's counts into s.
func (s *PredicateStats) Merge(other PredicateStats) {
	s.Orient2DCalls += other.Orient2DCalls
	s.Orient2DExact += other.Orient2DExact
	s.InCircleCalls += other.InCircleCalls
	s.InCircleExact += other.InCircleExact
}

// Orient2D returns +1 if a, b, c are in counterclockwise order, -1 if
// clockwise, and 0 if collinear. Exact.
func Orient2D(a, b, c Point) int {
	return Orient2DStats(a, b, c, nil)
}

// Orient2DStats is Orient2D with optional instrumentation.
//
//ridt:noalloc
func Orient2DStats(a, b, c Point, st *PredicateStats) int {
	acx, bcx := a.X-c.X, b.X-c.X
	acy, bcy := a.Y-c.Y, b.Y-c.Y
	detL := acx * bcy
	detR := acy * bcx
	det := detL - detR
	// Stage A: products of opposite signs, or a zero product, fix the
	// sign outright; products of one sign need the error bound.
	var detSum float64
	certain := true
	if detL > 0 && detR > 0 || detL < 0 && detR < 0 {
		detSum = math.Abs(detL) + math.Abs(detR)
		errBound := ccwErrBoundA * detSum
		certain = det >= errBound || -det >= errBound
	}
	if certain && filterable(acx) && filterable(bcx) && filterable(acy) && filterable(bcy) {
		st.addOrient(false)
		return sign(det)
	}
	st.addOrient(true)
	if s, ok := orient2DAdapt(a, b, c, detSum); ok {
		return s
	}
	return orient2DExact(a, b, c)
}

func sign(x float64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

func rat(x float64) *big.Rat { return new(big.Rat).SetFloat64(x) }

func orient2DExact(a, b, c Point) int {
	acx := new(big.Rat).Sub(rat(a.X), rat(c.X))
	bcy := new(big.Rat).Sub(rat(b.Y), rat(c.Y))
	acy := new(big.Rat).Sub(rat(a.Y), rat(c.Y))
	bcx := new(big.Rat).Sub(rat(b.X), rat(c.X))
	l := new(big.Rat).Mul(acx, bcy)
	r := new(big.Rat).Mul(acy, bcx)
	return l.Cmp(r)
}

// InCircle returns +1 if d lies strictly inside the circumcircle of the
// counterclockwise triangle (a, b, c), -1 if strictly outside, and 0 if on
// the circle. If (a, b, c) is clockwise the sign is flipped by the caller's
// orientation convention; Delaunay code always passes CCW triangles. Exact.
func InCircle(a, b, c, d Point) int {
	return InCircleStats(a, b, c, d, nil)
}

// InCircleStats is InCircle with optional instrumentation.
//
//ridt:noalloc
func InCircleStats(a, b, c, d Point, st *PredicateStats) int {
	adx, ady := a.X-d.X, a.Y-d.Y
	bdx, bdy := b.X-d.X, b.Y-d.Y
	cdx, cdy := c.X-d.X, c.Y-d.Y

	bdxcdy := bdx * cdy
	cdxbdy := cdx * bdy
	alift := adx*adx + ady*ady

	cdxady := cdx * ady
	adxcdy := adx * cdy
	blift := bdx*bdx + bdy*bdy

	adxbdy := adx * bdy
	bdxady := bdx * ady
	clift := cdx*cdx + cdy*cdy

	det := alift*(bdxcdy-cdxbdy) + blift*(cdxady-adxcdy) + clift*(adxbdy-bdxady)

	permanent := (math.Abs(bdxcdy)+math.Abs(cdxbdy))*alift +
		(math.Abs(cdxady)+math.Abs(adxcdy))*blift +
		(math.Abs(adxbdy)+math.Abs(bdxady))*clift
	errBound := inCircleBoundA * permanent
	if (det > errBound || -det > errBound) &&
		filterable(adx) && filterable(ady) && filterable(bdx) &&
		filterable(bdy) && filterable(cdx) && filterable(cdy) {
		st.addInCircle(false)
		return sign(det)
	}
	st.addInCircle(true)
	if s, ok := inCircleAdapt(a, b, c, d, permanent); ok {
		return s
	}
	return inCircleExact(a, b, c, d)
}

func inCircleExact(a, b, c, d Point) int {
	adx := new(big.Rat).Sub(rat(a.X), rat(d.X))
	ady := new(big.Rat).Sub(rat(a.Y), rat(d.Y))
	bdx := new(big.Rat).Sub(rat(b.X), rat(d.X))
	bdy := new(big.Rat).Sub(rat(b.Y), rat(d.Y))
	cdx := new(big.Rat).Sub(rat(c.X), rat(d.X))
	cdy := new(big.Rat).Sub(rat(c.Y), rat(d.Y))

	lift := func(x, y *big.Rat) *big.Rat {
		xx := new(big.Rat).Mul(x, x)
		yy := new(big.Rat).Mul(y, y)
		return xx.Add(xx, yy)
	}
	minor := func(x1, y1, x2, y2 *big.Rat) *big.Rat {
		l := new(big.Rat).Mul(x1, y2)
		r := new(big.Rat).Mul(x2, y1)
		return l.Sub(l, r)
	}

	det := new(big.Rat)
	term := new(big.Rat).Mul(lift(adx, ady), minor(bdx, bdy, cdx, cdy))
	det.Add(det, term)
	term = new(big.Rat).Mul(lift(bdx, bdy), minor(cdx, cdy, adx, ady))
	det.Add(det, term)
	term = new(big.Rat).Mul(lift(cdx, cdy), minor(adx, ady, bdx, bdy))
	det.Add(det, term)
	return det.Sign()
}

// Circumcenter returns the center of the circle through a, b, c. The
// triangle must not be degenerate.
func Circumcenter(a, b, c Point) Point {
	bx, by := b.X-a.X, b.Y-a.Y
	cx, cy := c.X-a.X, c.Y-a.Y
	d := 2 * (bx*cy - by*cx)
	ux := (cy*(bx*bx+by*by) - by*(cx*cx+cy*cy)) / d
	uy := (bx*(cx*cx+cy*cy) - cx*(bx*bx+by*by)) / d
	return Point{a.X + ux, a.Y + uy}
}
