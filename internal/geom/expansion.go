package geom

import "math"

// Error-free transforms and expansion arithmetic after Shewchuk (1997),
// Sections 2.5–2.8. An expansion is a slice of float64 components whose
// exact sum is the value it represents; the components are
// nonoverlapping and ordered by increasing magnitude, so the last nonzero
// component carries the sign of the whole. Every routine here is exact
// as long as no product overflows or underflows; the predicates keep
// their operands inside the exponent window (inWindow) that guarantees
// it. Products are written float64(a*b) (see the package comment).

// fastTwoSum returns x = fl(a+b) and y with x+y = a+b exactly. Requires
// |a| >= |b| (or a = 0).
//
//ridt:noalloc
func fastTwoSum(a, b float64) (x, y float64) {
	x = a + b
	y = b - (x - a)
	return x, y
}

// twoSum returns x = fl(a+b) and y with x+y = a+b exactly.
//
//ridt:noalloc
func twoSum(a, b float64) (x, y float64) {
	x = a + b
	bv := x - a
	av := x - bv
	return x, (a - av) + (b - bv)
}

// twoDiffTail returns the y with x+y = a-b exactly, given x = fl(a-b).
//
//ridt:noalloc
func twoDiffTail(a, b, x float64) float64 {
	bv := a - x
	av := x + bv
	return (a - av) + (bv - b)
}

// twoDiff returns x = fl(a-b) and y with x+y = a-b exactly.
//
//ridt:noalloc
func twoDiff(a, b float64) (x, y float64) {
	x = a - b
	return x, twoDiffTail(a, b, x)
}

// twoProduct returns x = fl(a*b) and y with x+y = a*b exactly: the fused
// multiply-add a*b - x rounds only once, and its exact value fits in a
// float64.
//
//ridt:noalloc
func twoProduct(a, b float64) (x, y float64) {
	x = float64(a * b)
	return x, math.FMA(a, b, -x)
}

// twoTwoSum returns (a1+a0) + (b1+b0) as a four-component expansion.
//
//ridt:noalloc
func twoTwoSum(a1, a0, b1, b0 float64) [4]float64 {
	i, x0 := twoSum(a0, b0)
	j, r := twoSum(a1, i)
	i, x1 := twoSum(r, b1)
	x3, x2 := twoSum(j, i)
	return [4]float64{x0, x1, x2, x3}
}

// twoTwoDiff returns (a1+a0) - (b1+b0) as a four-component expansion.
//
//ridt:noalloc
func twoTwoDiff(a1, a0, b1, b0 float64) [4]float64 {
	i, x0 := twoDiff(a0, b0)
	j, r := twoSum(a1, i)
	i, x1 := twoDiff(r, b1)
	x3, x2 := twoSum(j, i)
	return [4]float64{x0, x1, x2, x3}
}

// productDiff returns a*b - c*d exactly as a four-component expansion.
//
//ridt:noalloc
func productDiff(a, b, c, d float64) [4]float64 {
	s1, s0 := twoProduct(a, b)
	t1, t0 := twoProduct(c, d)
	return twoTwoDiff(s1, s0, t1, t0)
}

// sumOfSquares returns a*a + b*b exactly as a four-component expansion.
//
//ridt:noalloc
func sumOfSquares(a, b float64) [4]float64 {
	s1, s0 := twoProduct(a, a)
	t1, t0 := twoProduct(b, b)
	return twoTwoSum(s1, s0, t1, t0)
}

// fastExpansionSumZeroelim writes e + f into h with zero components
// removed and returns its length (Shewchuk's
// fast_expansion_sum_zeroelim). e and f must be nonempty and strongly
// nonoverlapping; h needs room for len(e)+len(f) components. A zero sum
// is the single component 0.
//
//ridt:noalloc
func fastExpansionSumZeroelim(e, f, h []float64) int {
	ei, fi := 0, 0
	var q float64
	// Merge the components by increasing magnitude.
	if fnow, enow := f[0], e[0]; (fnow > enow) == (fnow > -enow) {
		q = enow
		ei++
	} else {
		q = fnow
		fi++
	}
	n := 0
	if ei < len(e) && fi < len(f) {
		var hh float64
		if fnow, enow := f[fi], e[ei]; (fnow > enow) == (fnow > -enow) {
			q, hh = fastTwoSum(enow, q)
			ei++
		} else {
			q, hh = fastTwoSum(fnow, q)
			fi++
		}
		if hh != 0 {
			h[n] = hh
			n++
		}
		for ei < len(e) && fi < len(f) {
			if fnow, enow := f[fi], e[ei]; (fnow > enow) == (fnow > -enow) {
				q, hh = twoSum(q, enow)
				ei++
			} else {
				q, hh = twoSum(q, fnow)
				fi++
			}
			if hh != 0 {
				h[n] = hh
				n++
			}
		}
	}
	for ; ei < len(e); ei++ {
		var hh float64
		q, hh = twoSum(q, e[ei])
		if hh != 0 {
			h[n] = hh
			n++
		}
	}
	for ; fi < len(f); fi++ {
		var hh float64
		q, hh = twoSum(q, f[fi])
		if hh != 0 {
			h[n] = hh
			n++
		}
	}
	if q != 0 || n == 0 {
		h[n] = q
		n++
	}
	return n
}

// scaleExpansionZeroelim writes e*b into h with zero components removed
// and returns its length (Shewchuk's scale_expansion_zeroelim). e must be
// nonempty and nonoverlapping; h needs room for 2*len(e) components.
//
//ridt:noalloc
func scaleExpansionZeroelim(e []float64, b float64, h []float64) int {
	q, hh := twoProduct(e[0], b)
	n := 0
	if hh != 0 {
		h[n] = hh
		n++
	}
	for _, enow := range e[1:] {
		p1, p0 := twoProduct(enow, b)
		var sum float64
		sum, hh = twoSum(q, p0)
		if hh != 0 {
			h[n] = hh
			n++
		}
		q, hh = fastTwoSum(p1, sum)
		if hh != 0 {
			h[n] = hh
			n++
		}
	}
	if q != 0 || n == 0 {
		h[n] = q
		n++
	}
	return n
}

// estimate returns the floating-point sum of an expansion's components, an
// approximation of its value with relative error below 2^-52 or so.
//
//ridt:noalloc
func estimate(e []float64) float64 {
	q := e[0]
	for _, x := range e[1:] {
		q += x
	}
	return q
}

// expansionSign returns the exact sign of an expansion: the sign of its
// most significant nonzero component.
//
//ridt:noalloc
func expansionSign(e []float64) int {
	for i := len(e) - 1; i >= 0; i-- {
		if e[i] != 0 {
			return sign(e[i])
		}
	}
	return 0
}

// The exponent window of the expansion stages. A predicate's atoms are the
// coordinate differences it forms and, when those are inexact, their
// rounding errors (tails); InCircle multiplies up to four of them. If
// every atom is zero or has its binary exponent in [-windowExp,
// windowExp], every component any stage forms is a multiple of
// 2^(4·(-windowExp-52)) = 2^-1008 and below 2^(4·(windowExp+1)+4) =
// 2^808, so no product underflows or overflows and every transform above
// is exact. Inputs outside the window go to the big.Rat path.
const (
	windowExp = 200
	windowLo  = 1023 - windowExp // biased exponent of 2^-windowExp
)

// inWindow reports whether x is zero or has its exponent in the window;
// subnormals, infinities and NaNs are outside.
//
//ridt:noalloc
func inWindow(x float64) bool {
	e := math.Float64bits(x) >> 52 & 0x7ff
	return e-windowLo <= 2*windowExp || x == 0
}

// filterable reports whether the stage-A filters may certify a sign from
// a coordinate difference x: x is zero, inside the window, or NaN. A
// finite x outside the window can make a product underflow or overflow,
// and an infinite x can be the overflow of two finite coordinates; the
// filters' forward error bounds hold in neither case. A NaN difference
// comes only from a non-finite coordinate, which is outside the
// predicates' contract and keeps a filter's answer when the filter gives
// one: Orient2D's answers 0, while InCircle's cannot certify a NaN
// determinant. Non-finite input the filters pass on reaches the exact
// fallbacks, which answer 0 for it.
//
//ridt:noalloc
func filterable(x float64) bool {
	return inWindow(x) || x != x
}
