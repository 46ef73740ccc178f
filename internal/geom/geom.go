// Package geom provides the planar geometric types and robust predicates
// used by the Delaunay triangulation, closest pair, linear programming and
// smallest-enclosing-disk algorithms.
//
// The two predicates the paper's algorithms rely on — Orient2D (line-side
// test) and InCircle (encroachment test, Algorithm 4's InCircle) — are
// evaluated with a float64 fast path guarded by a forward error bound; when
// the bound cannot certify the sign, the determinant is recomputed exactly
// with math/big rational arithmetic. This two-stage scheme gives exact
// results at floating-point speed on non-degenerate inputs.
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

// PredicateStats counts predicate evaluations; the exact-fallback rate is a
// design ablation in DESIGN.md. Counters are not atomic: use one instance
// per goroutine or accept approximate totals. A nil *PredicateStats is
// valid and records nothing.
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
func Orient2DStats(a, b, c Point, st *PredicateStats) int {
	detL := (a.X - c.X) * (b.Y - c.Y)
	detR := (a.Y - c.Y) * (b.X - c.X)
	det := detL - detR
	var detSum float64
	switch {
	case detL > 0:
		if detR <= 0 {
			st.addOrient(false)
			return sign(det)
		}
		detSum = detL + detR
	case detL < 0:
		if detR >= 0 {
			st.addOrient(false)
			return sign(det)
		}
		detSum = -detL - detR
	default:
		st.addOrient(false)
		return sign(det)
	}
	errBound := ccwErrBoundA * detSum
	if det >= errBound || -det >= errBound {
		st.addOrient(false)
		return sign(det)
	}
	st.addOrient(true)
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

	permanent := (abs(bdxcdy)+abs(cdxbdy))*alift +
		(abs(cdxady)+abs(adxcdy))*blift +
		(abs(adxbdy)+abs(bdxady))*clift
	errBound := inCircleBoundA * permanent
	if det > errBound || -det > errBound {
		st.addInCircle(false)
		return sign(det)
	}
	st.addInCircle(true)
	return inCircleExact(a, b, c, d)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
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
