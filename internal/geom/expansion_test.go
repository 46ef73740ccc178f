package geom

import (
	"math"
	"math/big"
	"math/bits"
	"sort"
	"testing"

	"repro/internal/rng"
)

func ratOf(xs ...float64) *big.Rat {
	s := new(big.Rat)
	for _, x := range xs {
		s.Add(s, new(big.Rat).SetFloat64(x))
	}
	return s
}

// lsbExp returns the exponent of x's least significant set bit.
func lsbExp(x float64) int {
	b := math.Float64bits(x)
	m, e := b&(1<<52-1), int(b>>52&0x7ff)
	if e == 0 {
		e = 1
	} else {
		m |= 1 << 52
	}
	return e - 1075 + bits.TrailingZeros64(m)
}

// checkExpansion fails unless h is a valid zero-eliminated expansion of
// want: nonoverlapping, increasing in magnitude, free of zeros (a zero
// value is the single component 0), with exact sum want.
func checkExpansion(t *testing.T, what string, h []float64, want *big.Rat) {
	t.Helper()
	if ratOf(h...).Cmp(want) != 0 {
		t.Fatalf("%s: expansion %v sums to %s, want %s", what, h, ratOf(h...).FloatString(40), want.FloatString(40))
	}
	if len(h) == 1 && h[0] == 0 {
		return
	}
	for i, x := range h {
		if x == 0 {
			t.Fatalf("%s: zero component %d in %v", what, i, h)
		}
		if i > 0 && math.Abs(h[i-1]) >= math.Ldexp(1, lsbExp(x)) {
			t.Fatalf("%s: components %d and %d overlap in %v", what, i-1, i, h)
		}
	}
	if s := expansionSign(h); s != want.Sign() {
		t.Fatalf("%s: expansionSign %d, want %d", what, s, want.Sign())
	}
}

// windowFloat returns a random float64 with a random sign and a binary
// exponent in [-span, span].
func windowFloat(r *rng.RNG, span int) float64 {
	return math.Ldexp(1+r.Float64(), r.Intn(2*span+1)-span) * float64(1-2*r.Intn(2))
}

// TestErrorFreeTransforms checks every transform and expansion kernel
// against big.Rat: the exact value, and the nonoverlapping, increasing,
// zero-free shape the kernels downstream rely on. Inputs are random
// across the exponent window plus the extremes each kernel is exact at.
func TestErrorFreeTransforms(t *testing.T) {
	r := rng.New(20)
	sums := [][2]float64{
		{math.MaxFloat64 / 4, math.MaxFloat64 / 8}, {math.MaxFloat64 / 2, -math.MaxFloat64 / 4},
		{5e-324, 1}, {-5e-324, 2.5e-308}, {math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64},
		{1, math.Nextafter(1, 2) - 1}, {0, math.Copysign(0, -1)}, {1e300, -1e-300},
	}
	for i := 0; i < 4000; i++ {
		sums = append(sums, [2]float64{windowFloat(r, 500), windowFloat(r, 500)})
	}
	for _, p := range sums {
		a, b := p[0], p[1]
		want := ratOf(a, b)
		x, y := twoSum(a, b)
		if x != a+b || ratOf(x, y).Cmp(want) != 0 {
			t.Fatalf("twoSum(%g, %g) = %g, %g", a, b, x, y)
		}
		if math.Abs(a) < math.Abs(b) {
			a, b = b, a
		}
		if x, y := fastTwoSum(a, b); ratOf(x, y).Cmp(ratOf(a, b)) != 0 {
			t.Fatalf("fastTwoSum(%g, %g) = %g, %g", a, b, x, y)
		}
		x, y = twoDiff(a, b)
		if x != a-b || ratOf(x, y).Cmp(new(big.Rat).Sub(ratOf(a), ratOf(b))) != 0 {
			t.Fatalf("twoDiff(%g, %g) = %g, %g", a, b, x, y)
		}
	}

	// Products: exact while lsb(a)·lsb(b) stays normal-representable, so
	// the extremes are the window's edges and their products.
	edge := math.Ldexp(1, windowExp)
	prods := [][2]float64{
		{edge, edge}, {1 / edge, 1 / edge}, {math.Nextafter(2*edge, 0), math.Nextafter(2*edge, 0)},
		{math.Nextafter(1/edge, 1), -math.Nextafter(1/edge, 1)}, {math.Ldexp(1, 1000), 0.25}, {0, -3},
	}
	for i := 0; i < 4000; i++ {
		prods = append(prods, [2]float64{windowFloat(r, windowExp), windowFloat(r, windowExp)})
	}
	for _, p := range prods {
		a, b := p[0], p[1]
		x, y := twoProduct(a, b)
		if x != a*b || ratOf(x, y).Cmp(new(big.Rat).Mul(ratOf(a), ratOf(b))) != 0 {
			t.Fatalf("twoProduct(%g, %g) = %g, %g", a, b, x, y)
		}
	}

	// Four-component transforms and expansion sums and scalings, on the
	// operands the predicates build: products of window values, sums of
	// those, and their multiples.
	prod := func(a, b float64) *big.Rat { return new(big.Rat).Mul(ratOf(a), ratOf(b)) }
	nonzero := func(h []float64) []float64 {
		out := h[:0:0]
		for _, x := range h {
			if x != 0 {
				out = append(out, x)
			}
		}
		if len(out) == 0 {
			out = append(out, 0)
		}
		return out
	}
	for i := 0; i < 2000; i++ {
		a, b, c, d := windowFloat(r, 50), windowFloat(r, 50), windowFloat(r, 50), windowFloat(r, 50)
		if i%4 == 0 {
			c, d = a, b // an exact zero
		}
		a1, a0 := twoProduct(a, b)
		b1, b0 := twoProduct(c, d)
		s := twoTwoSum(a1, a0, b1, b0)
		checkExpansion(t, "twoTwoSum", nonzero(s[:]), ratOf(a1, a0, b1, b0))
		df := twoTwoDiff(a1, a0, b1, b0)
		checkExpansion(t, "twoTwoDiff", nonzero(df[:]), new(big.Rat).Sub(ratOf(a1, a0), ratOf(b1, b0)))
		pd := productDiff(a, b, c, d)
		checkExpansion(t, "productDiff", nonzero(pd[:]), new(big.Rat).Sub(prod(a, b), prod(c, d)))
		sq := sumOfSquares(a, c)
		checkExpansion(t, "sumOfSquares", nonzero(sq[:]), new(big.Rat).Add(prod(a, a), prod(c, c)))

		var e8, f8 [8]float64
		var h16 [16]float64
		ne := fastExpansionSumZeroelim(df[:], s[:], e8[:])
		checkExpansion(t, "fastExpansionSumZeroelim", e8[:ne], ratOf(append(df[:], s[:]...)...))
		k := windowFloat(r, 50)
		nf := scaleExpansionZeroelim(pd[:], k, f8[:])
		checkExpansion(t, "scaleExpansionZeroelim", f8[:nf], new(big.Rat).Mul(ratOf(pd[:]...), ratOf(k)))
		nh := fastExpansionSumZeroelim(e8[:ne], f8[:nf], h16[:])
		checkExpansion(t, "fastExpansionSumZeroelim (zero-eliminated inputs)", h16[:nh],
			new(big.Rat).Add(ratOf(e8[:ne]...), ratOf(f8[:nf]...)))
		if est, exact := estimate(h16[:nh]), ratOf(h16[:nh]...); exact.Sign() != 0 {
			if rel, _ := new(big.Rat).Quo(new(big.Rat).Sub(ratOf(est), exact), exact).Float64(); math.Abs(rel) > 1e-15 {
				t.Fatalf("estimate %g off by %g relative", est, rel)
			}
		}
	}

	for _, c := range []struct {
		x  float64
		in bool
	}{
		{0, true}, {math.Copysign(0, -1), true}, {1, true}, {-3.5, true},
		{edge, true}, {math.Nextafter(2*edge, 0), true}, {2 * edge, false}, {-2 * edge, false},
		{1 / edge, true}, {-1 / edge, true}, {math.Nextafter(1/edge, 0), false},
		{5e-324, false}, {math.MaxFloat64, false}, {math.Inf(-1), false}, {math.NaN(), false},
	} {
		if got := inWindow(c.x); got != c.in {
			t.Errorf("inWindow(%g) = %v, want %v", c.x, got, c.in)
		}
	}
}

// TestPredicatesOutsideWindow pins the inputs the stage-A filters must
// not certify: products that underflow (subnormal differences) and
// differences that overflow (finite coordinates near ±MaxFloat64). Both
// gave wrong signs before the filters checked the exponent window. A NaN
// or infinite coordinate is outside the contract; every predicate answers
// it 0, as a corner and as the query, where big.Rat, which cannot
// represent it, used to panic.
func TestPredicatesOutsideWindow(t *testing.T) {
	max := math.MaxFloat64
	for _, p := range [][3]Point{
		{{1e-323, 0}, {1e-323, 5e-324}, {5e-324, 5e-324}},
		{{max, 1}, {0, 0}, {-max, 0}},
		{{max, -max}, {-max, max}, {0, 1e-300}},
	} {
		if got, want := Orient2D(p[0], p[1], p[2]), orientBig(p[0], p[1], p[2]); got != want {
			t.Errorf("Orient2D%v = %d, oracle %d", p, got, want)
		}
	}
	for _, p := range [][4]Point{
		{{5e-324, 0}, {0, 5e-324}, {-5e-324, 0}, {0, -1e-323}},
		{{max, 0}, {0, max}, {-max, 0}, {0, -max / 2}},
		{{1, 1}, {1e-300, 1e-300}, {-3, -3}, {0, 1e-310}},
	} {
		want := inCircleBig(p[0], p[1], p[2], p[3])
		if got := InCircle(p[0], p[1], p[2], p[3]); got != want {
			t.Errorf("InCircle%v = %d, oracle %d", p, got, want)
		}
		pc := PrepareCircle(p[0], p[1], p[2])
		if got := pc.InCircleStats(p[3], nil); got != want {
			t.Errorf("prepared InCircle%v = %d, oracle %d", p, got, want)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	quad := [4]Point{{1, 0}, {0, 1}, {-1, 0}, {0, 0.5}}
	for _, bad := range []Point{{nan, 0}, {0, nan}, {nan, nan}, {inf, 0}, {-inf, 0}, {0, inf}} {
		for i := range quad {
			p := quad
			p[i] = bad
			checks := map[string]func() int{
				"InCircle": func() int { return InCircle(p[0], p[1], p[2], p[3]) },
				"prepared InCircle": func() int {
					pc := PrepareCircle(p[0], p[1], p[2])
					return pc.InCircleStats(p[3], nil)
				},
			}
			if i < 3 {
				checks["Orient2D"] = func() int { return Orient2D(p[0], p[1], p[2]) }
			}
			for name, f := range checks {
				if got, panicked := outcome(f); got != 0 || panicked != nil {
					t.Errorf("%s%v = %d (panic %v), want 0", name, p, got, panicked)
				}
			}
		}
	}
}

// outcome runs f and returns its result, or the value it panicked with.
func outcome(f func() int) (v int, panicked any) {
	defer func() { panicked = recover() }()
	return f(), nil
}

// mixedFloat returns a value whose exponent spans 2^±60, so that
// differences of two such values are usually inexact and carry a tail.
func mixedFloat(r *rng.RNG) float64 {
	return math.Ldexp(r.Float64()-0.5, r.Intn(121)-60)
}

// TestAdaptiveStagesExact compares the adaptive stages with the oracles.
// An infinite error scale certifies nothing, so every input with a tail
// runs stage D in full: that checks the tail expansion on every input,
// not only on the rare ones that get there through the public API. The
// near-degenerate inputs (a fourth point on a chord, points on a
// diagonal with one nudged off it) reach stages C and D through
// InCircle and Orient2D themselves.
func TestAdaptiveStagesExact(t *testing.T) {
	r := rng.New(21)
	inf := math.Inf(1)
	count := 3000
	if testing.Short() {
		count = 500
	}
	for i := 0; i < count; i++ {
		var p [4]Point
		for k := range p {
			p[k] = Point{mixedFloat(r), mixedFloat(r)}
		}
		switch i % 3 {
		case 1: // d on the chord ac
			p[3] = Point{p[0].X + (p[2].X-p[0].X)*0.5, p[0].Y + (p[2].Y-p[0].Y)*0.5}
		case 2: // all four on the diagonal, d nudged off it
			for k := range p {
				p[k].Y = p[k].X
			}
			p[3].Y = math.Nextafter(p[3].Y, 1)
		}
		wantC := inCircleBig(p[0], p[1], p[2], p[3])
		if s, ok := inCircleAdapt(p[0], p[1], p[2], p[3], inf); !ok || s != wantC {
			t.Fatalf("stage D on %v: %d, %v; oracle %d", p, s, ok, wantC)
		}
		if got := InCircle(p[0], p[1], p[2], p[3]); got != wantC {
			t.Fatalf("InCircle%v = %d, oracle %d", p, got, wantC)
		}
		pc := PrepareCircle(p[0], p[1], p[2])
		if got := pc.InCircleStats(p[3], nil); got != wantC {
			t.Fatalf("prepared InCircle%v = %d, oracle %d", p, got, wantC)
		}
		wantO := orientBig(p[0], p[1], p[3])
		if s, ok := orient2DAdapt(p[0], p[1], p[3], inf); !ok || s != wantO {
			t.Fatalf("orient stage D on %v: %d, %v; oracle %d", p, s, ok, wantO)
		}
		if got := Orient2D(p[0], p[1], p[3]); got != wantO {
			t.Fatalf("Orient2D%v = %d, oracle %d", p, got, wantO)
		}
	}
}

// TestExpansionPathDecidesWorkloads requires that the expansion stages,
// not big.Rat, decide every predicate on the Delaunay workloads: the exact
// lattice, points on the unit circle and the uniform disk, each with its
// bounding-triangle corners. Quadruples are drawn from runs of
// neighbouring indices, which on the lattice are collinear or cocircular
// far more often than random draws. With an infinite error scale the
// check covers every stage the inputs could need.
func TestExpansionPathDecidesWorkloads(t *testing.T) {
	r := rng.New(22)
	inf := math.Inf(1)
	for _, w := range []struct {
		name string
		pts  []Point
	}{
		{"lattice", GridJitter(r, 1024, 0)},
		{"circle", OnCircle(r, 1024, 0)},
		{"disk", UniformDisk(r, 1024)},
	} {
		pts := w.pts
		a, b, c := BoundingTriangle(pts)
		pts = append(pts, a, b, c)
		var st PredicateStats
		pick := func(i int) Point {
			if r.Intn(8) == 0 {
				return pts[len(pts)-1-r.Intn(3)]
			}
			return pts[(i+r.Intn(70))%len(pts)]
		}
		for q := 0; q < 20000; q++ {
			i := r.Intn(len(pts))
			p0, p1, p2, p3 := pick(i), pick(i), pick(i), pick(i)
			s, ok := inCircleAdapt(p0, p1, p2, p3, inf)
			if !ok {
				t.Fatalf("%s: InCircle%v left the exponent window", w.name, [4]Point{p0, p1, p2, p3})
			}
			before := st.InCircleExact
			if got := InCircleStats(p0, p1, p2, p3, &st); got != s {
				t.Fatalf("%s: InCircle%v = %d, stage D %d", w.name, [4]Point{p0, p1, p2, p3}, got, s)
			}
			pc := PrepareCircle(p0, p1, p2)
			if got := pc.InCircleStats(p3, nil); got != s {
				t.Fatalf("%s: prepared InCircle%v = %d, stage D %d", w.name, [4]Point{p0, p1, p2, p3}, got, s)
			}
			if st.InCircleExact > before && q%16 == 0 {
				if want := inCircleBig(p0, p1, p2, p3); s != want {
					t.Fatalf("%s: InCircle%v = %d, oracle %d", w.name, [4]Point{p0, p1, p2, p3}, s, want)
				}
			}
			so, ok := orient2DAdapt(p0, p1, p2, inf)
			if !ok {
				t.Fatalf("%s: Orient2D%v left the exponent window", w.name, [3]Point{p0, p1, p2})
			}
			if got := Orient2DStats(p0, p1, p2, &st); got != so {
				t.Fatalf("%s: Orient2D%v = %d, stage D %d", w.name, [3]Point{p0, p1, p2}, got, so)
			}
		}
		if w.name == "lattice" && st.InCircleExact == 0 {
			t.Fatalf("lattice: no quadruple got past stage A: %+v", st)
		}
	}
}

// TestPredicateAllocs pins the exact predicates at zero allocations inside
// the exponent window: on the lattice (stage B), on near-cocircular and
// near-collinear inputs with inexact differences (stages C and D), and
// with stage D forced by an infinite error scale; and the prepared
// circle, on a query its filter decides and on one it passes to the full
// predicate.
func TestPredicateAllocs(t *testing.T) {
	lat := GridJitter(rng.New(1), 1024, 0)
	tiny := math.Ldexp(1, -70)
	diag := [4]Point{{1, 1}, {tiny * 3, tiny * 3}, {-3, -3}, {tiny, math.Nextafter(tiny, 1)}}
	chord := [4]Point{{0.1, 0.7}, {-0.6, 0.2}, {0.3, -0.9}, {0.2, -0.1}}
	inf := math.Inf(1)
	var st PredicateStats
	var sink int
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"lattice InCircle", func() { sink += InCircle(lat[0], lat[1], lat[33], lat[32]) }},
		{"lattice Orient2D", func() { sink += Orient2D(lat[0], lat[1], lat[2]) }},
		{"diagonal InCircle", func() { sink += InCircle(diag[0], diag[1], diag[2], diag[3]) }},
		{"diagonal Orient2D", func() { sink += Orient2D(diag[0], diag[1], diag[3]) }},
		{"chord InCircle", func() { sink += InCircle(chord[0], chord[1], chord[2], chord[3]) }},
		{"forced stage D InCircle", func() {
			s, _ := inCircleAdapt(chord[0], chord[1], chord[2], chord[3], inf)
			sink += s
		}},
		{"forced stage D Orient2D", func() {
			s, _ := orient2DAdapt(diag[0], diag[1], diag[3], inf)
			sink += s
		}},
		{"prepared InCircle, filter decides", func() {
			pc := PrepareCircle(chord[0], chord[1], chord[2])
			sink += pc.InCircleStats(Point{0.9, 0.9}, &st)
		}},
		{"prepared InCircle, lattice tie", func() {
			pc := PrepareCircle(lat[0], lat[1], lat[33])
			sink += pc.InCircleStats(lat[32], &st)
		}},
	} {
		if a := testing.AllocsPerRun(100, c.f); a != 0 {
			t.Errorf("%s: %v allocs per call, want 0", c.name, a)
		}
	}
	_ = sink
}

// fuzzPoints builds four points from a base, eight small integer offsets
// packed into offs (one signed byte each, x then y per point), a
// power-of-two scale and one-ulp nudges (two bits per coordinate: 1 up,
// 2 down). ok is false when a coordinate is not finite.
func fuzzPoints(bx, by float64, offs uint64, exp int16, nudge uint16) (p [4]Point, ok bool) {
	scale := math.Ldexp(1, int(exp))
	for k := 0; k < 8; k++ {
		v := []float64{bx, by}[k%2] + float64(int8(offs>>(8*k)))*scale
		switch nudge >> (2 * k) & 3 {
		case 1:
			v = math.Nextafter(v, math.Inf(1))
		case 2:
			v = math.Nextafter(v, math.Inf(-1))
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return p, false
		}
		if k%2 == 0 {
			p[k/2].X = v
		} else {
			p[k/2].Y = v
		}
	}
	return p, true
}

// packOffsets packs eight offsets for fuzzPoints.
func packOffsets(o [8]int8) uint64 {
	var u uint64
	for k, v := range o {
		u |= uint64(uint8(v)) << (8 * k)
	}
	return u
}

// FuzzPredicates compares Orient2D and InCircle, their stage D run in
// full, and InCircle through the circle PrepareCircle(a, b, c) with the
// big.Rat oracles. The prepared method's fallback is the full predicate,
// checked here too, so it agrees with the oracle exactly when every sign
// its own filter decides does.
func FuzzPredicates(f *testing.F) {
	cocircular := packOffsets([8]int8{5, 0, 0, 5, -5, 0, 3, 4})
	square := packOffsets([8]int8{1, 0, 1, 1, 0, 1, 0, 0})
	wide := packOffsets([8]int8{1, 0, 0, 2, -1, 0, 0, -2})
	// Exactly cocircular dyadic quadruples, at several bases and scales.
	f.Add(0.5, 0.25, cocircular, int16(-3), uint16(0))
	f.Add(float64(1<<20), 3.0, cocircular, int16(-10), uint16(0))
	f.Add(0.0, 0.0, square, int16(-8), uint16(0))
	f.Add(1e15, -1e15, square, int16(0), uint16(0))
	// One-ulp perturbations of them.
	f.Add(0.5, 0.25, cocircular, int16(-3), uint16(1<<12))
	f.Add(0.5, 0.25, cocircular, int16(-3), uint16(2<<14|1<<12))
	f.Add(0.0, 0.0, square, int16(-8), uint16(0x5555))
	// Both sides of each window edge: differences of 2^±200 and 2^±201,
	// and tails of 2^-199 and 2^-201 (a tiny base beside integer offsets).
	for _, e := range []int16{windowExp - 1, windowExp, windowExp + 1, -windowExp - 1, -windowExp, -windowExp + 1} {
		f.Add(0.0, 0.0, wide, e, uint16(0))
		f.Add(0.0, 0.0, cocircular, e, uint16(1<<12))
	}
	f.Add(math.Ldexp(1, -199), math.Ldexp(1, -199), square, int16(0), uint16(0))
	f.Add(math.Ldexp(1, -201), math.Ldexp(1, -201), square, int16(0), uint16(0))
	f.Add(math.Ldexp(3, -201), 1.0, cocircular, int16(0), uint16(1<<12))
	// Subnormals and the ends of the float range.
	f.Add(5e-324, 0.0, square, int16(-1074), uint16(0))
	f.Add(0.0, 2.2250738585072014e-308, cocircular, int16(-1070), uint16(0x0100))
	f.Add(math.MaxFloat64, -math.MaxFloat64, square, int16(970), uint16(0))
	f.Add(-math.MaxFloat64, math.MaxFloat64, wide, int16(1000), uint16(2))
	// A lattice point against the corners BoundingTriangle puts around
	// the unit box, (-49.5, -49.5), (50.5, -49.5), (0.5, 50.5).
	f.Add(0.5, 0.5, packOffsets([8]int8{-100, -100, 100, -100, 0, 100, 1, -1}), int16(-1), uint16(0))
	f.Add(0.5, 0.5, packOffsets([8]int8{-100, -100, 100, -100, 0, 100, 0, 0}), int16(-1), uint16(0x4000))
	// A circle inside the window and a query one ulp of 2^-210 off its
	// corner c: d - c = 2^-262 leaves the window.
	f.Add(math.Ldexp(1, -210), math.Ldexp(1, -210), packOffsets([8]int8{1, 0, 0, 1, 0, 0, 0, 0}), int16(0), uint16(1<<12))

	inf := math.Inf(1)
	f.Fuzz(func(t *testing.T, bx, by float64, offs uint64, exp int16, nudge uint16) {
		p, ok := fuzzPoints(bx, by, offs, exp, nudge)
		if !ok {
			return
		}
		a, b, c, d := p[0], p[1], p[2], p[3]
		want := inCircleBig(a, b, c, d)
		if got := InCircle(a, b, c, d); got != want {
			t.Fatalf("InCircle%v = %d, oracle %d", p, got, want)
		}
		if s, ok := inCircleAdapt(a, b, c, d, inf); ok && s != want {
			t.Fatalf("InCircle stage D on %v = %d, oracle %d", p, s, want)
		}
		pc := PrepareCircle(a, b, c)
		if got := pc.InCircleStats(d, nil); got != want {
			t.Fatalf("prepared InCircle%v = %d, oracle %d", p, got, want)
		}
		for _, tri := range [][3]Point{{a, b, c}, {a, b, d}, {b, c, d}} {
			want := orientBig(tri[0], tri[1], tri[2])
			if got := Orient2D(tri[0], tri[1], tri[2]); got != want {
				t.Fatalf("Orient2D%v = %d, oracle %d", tri, got, want)
			}
			if s, ok := orient2DAdapt(tri[0], tri[1], tri[2], inf); ok && s != want {
				t.Fatalf("Orient2D stage D on %v = %d, oracle %d", tri, s, want)
			}
		}
	})
}

// preparedError returns |det − Det| / permanent in units of u for the
// query d against the prepared circle pc: det and the permanent as the
// filter computes them, Det in big.Rat over the exact differences d − c,
// a − c and b − c. ok is false when the filter would not run.
func preparedError(pc *PreparedCircle, d Point) (ratio float64, ok bool) {
	dx, dy := d.X-pc.c.X, d.Y-pc.c.Y
	if !pc.ok || !inWindow(dx) || !inWindow(dy) {
		return 0, false
	}
	det, permanent := pc.filter(dx, dy)
	diff := func(p Point) (x, y *big.Rat) {
		return ratOf(p.X, -pc.c.X), ratOf(p.Y, -pc.c.Y)
	}
	sq := func(x, y *big.Rat) *big.Rat {
		return new(big.Rat).Add(new(big.Rat).Mul(x, x), new(big.Rat).Mul(y, y))
	}
	mulSub := func(a, b, c, d *big.Rat) *big.Rat { // a·b − c·d
		return new(big.Rat).Sub(new(big.Rat).Mul(a, b), new(big.Rat).Mul(c, d))
	}
	ax, ay := diff(pc.a)
	bx, by := diff(pc.b)
	qx, qy := diff(d)
	la, lb := sq(ax, ay), sq(bx, by)
	exact := new(big.Rat).Mul(qx, mulSub(la, by, ay, lb))
	exact.Add(exact, new(big.Rat).Mul(qy, mulSub(ax, lb, la, bx)))
	exact.Add(exact, new(big.Rat).Mul(sq(qx, qy), mulSub(ay, bx, ax, by)))
	errAbs, _ := exact.Sub(new(big.Rat).SetFloat64(det), exact).Abs(exact).Float64()
	return errAbs / permanent / epsilon, true
}

// nearCocircular returns a counterclockwise triangle and a query, all four
// rounded from points at random angles on one circle with a random centre
// in the unit square and a radius between 2^-20 and 1.
func nearCocircular(r *rng.RNG) (a, b, c, d Point) {
	cx, cy := 2*r.Float64()-1, 2*r.Float64()-1
	rad := math.Exp2(-20 * r.Float64())
	var th [4]float64
	for k := range th {
		th[k] = 2 * math.Pi * r.Float64()
	}
	sort.Float64s(th[:3])
	on := func(t float64) Point { return Point{cx + rad*math.Cos(t), cy + rad*math.Sin(t)} }
	return on(th[0]), on(th[1]), on(th[2]), on(th[3])
}

// TestPreparedBoundMeasured pins preparedBound against measured error:
// on seeded near-cocircular quadruples, where the determinant cancels
// down to its rounding error, |det − Det| must stay within preparedBound
// times the permanent, det and the permanent computed as the filter
// computes them and Det exactly. The largest error is logged in units of
// u. The worst of these quadruples exceed 2u (the first at sample 286,
// inside the -short count; seeds 1 to 8 put 21 to 32 of 100,000 above 2u,
// the largest at 2.98u), so a bound cut to 2u fails here.
func TestPreparedBoundMeasured(t *testing.T) {
	n := 40000
	if testing.Short() {
		n = 4000
	}
	r := rng.New(3)
	worst, above := 0.0, 0
	for i := 0; i < n; i++ {
		a, b, c, d := nearCocircular(r)
		pc := PrepareCircle(a, b, c)
		ratio, ok := preparedError(&pc, d)
		if !ok {
			t.Fatalf("sample %d: quadruple %v %v %v %v left the exponent window", i, a, b, c, d)
		}
		if ratio*epsilon > preparedBound {
			t.Fatalf("sample %d: |det − Det| = %.3fu of the permanent, above preparedBound %.3fu (%v %v %v %v)",
				i, ratio, preparedBound/epsilon, a, b, c, d)
		}
		if ratio > 2 {
			above++
		}
		worst = max(worst, ratio)
	}
	t.Logf("%d near-cocircular quadruples: largest |det − Det| %.3fu of the permanent, %d above 2u; preparedBound %.3fu",
		n, worst, above, preparedBound/epsilon)
}
