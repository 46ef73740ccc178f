package geom

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestOrient2DBasics(t *testing.T) {
	a, b := Point{0, 0}, Point{1, 0}
	if Orient2D(a, b, Point{0, 1}) != 1 {
		t.Fatal("ccw expected")
	}
	if Orient2D(a, b, Point{0, -1}) != -1 {
		t.Fatal("cw expected")
	}
	if Orient2D(a, b, Point{2, 0}) != 0 {
		t.Fatal("collinear expected")
	}
}

func TestOrient2DAntisymmetry(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Point{ax, ay}, Point{bx, by}, Point{cx, cy}
		return Orient2D(a, b, c) == -Orient2D(b, a, c)
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestOrient2DRotationInvariance(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Point{ax, ay}, Point{bx, by}, Point{cx, cy}
		s := Orient2D(a, b, c)
		return s == Orient2D(b, c, a) && s == Orient2D(c, a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOrient2DNearDegenerate(t *testing.T) {
	// Points nearly collinear: the float fast path cannot certify the
	// sign; the exact fallback must. Build exactly-collinear points with
	// a one-ulp perturbation.
	a := Point{0, 0}
	b := Point{1, 1}
	c := Point{0.5, 0.5} // exactly on the line
	if Orient2D(a, b, c) != 0 {
		t.Fatal("exactly collinear must give 0")
	}
	cUp := Point{0.5, math.Nextafter(0.5, 1)}
	if Orient2D(a, b, cUp) != 1 {
		t.Fatal("one ulp above the line must be CCW")
	}
	cDn := Point{0.5, math.Nextafter(0.5, 0)}
	if Orient2D(a, b, cDn) != -1 {
		t.Fatal("one ulp below the line must be CW")
	}
}

func TestOrient2DMatchesExact(t *testing.T) {
	// The fast path (with fallback) must agree with pure big.Rat
	// evaluation on random and on adversarially-scaled inputs.
	r := rng.New(1)
	check := func(a, b, c Point) {
		want := orientBig(a, b, c)
		if got := Orient2D(a, b, c); got != want {
			t.Fatalf("Orient2D(%v,%v,%v)=%d want %d", a, b, c, got, want)
		}
	}
	for i := 0; i < 2000; i++ {
		base := Point{r.Float64(), r.Float64()}
		d := Point{r.Float64() - 0.5, r.Float64() - 0.5}
		s1, s2 := r.Float64()*2, r.Float64()*2
		a := base
		b := Point{base.X + d.X*s1, base.Y + d.Y*s1}
		c := Point{base.X + d.X*s2 + (r.Float64()-0.5)*1e-15, base.Y + d.Y*s2}
		check(a, b, c)
	}
}

func orientBig(a, b, c Point) int {
	ax, ay := new(big.Rat).SetFloat64(a.X), new(big.Rat).SetFloat64(a.Y)
	bx, by := new(big.Rat).SetFloat64(b.X), new(big.Rat).SetFloat64(b.Y)
	cx, cy := new(big.Rat).SetFloat64(c.X), new(big.Rat).SetFloat64(c.Y)
	l := new(big.Rat).Mul(new(big.Rat).Sub(ax, cx), new(big.Rat).Sub(by, cy))
	r := new(big.Rat).Mul(new(big.Rat).Sub(ay, cy), new(big.Rat).Sub(bx, cx))
	return l.Cmp(r)
}

// inCircleBig is the test oracle for InCircle: the 4×4 lifted determinant
// expanded along its last column (the query point's row subtracted), in
// big.Rat straight from the coordinates. It shares no code with the
// package's own big.Rat path, which works on coordinate differences.
func inCircleBig(a, b, c, d Point) int {
	p := [4]Point{a, b, c, d}
	var x, y, l [4]*big.Rat
	for i, q := range p {
		x[i], y[i] = new(big.Rat).SetFloat64(q.X), new(big.Rat).SetFloat64(q.Y)
		l[i] = new(big.Rat).Add(new(big.Rat).Mul(x[i], x[i]), new(big.Rat).Mul(y[i], y[i]))
	}
	// det3 returns the 3×3 determinant of rows (x, y, 1) over the given
	// three indices.
	det3 := func(i, j, k int) *big.Rat {
		t := new(big.Rat).Mul(x[i], new(big.Rat).Sub(y[j], y[k]))
		t.Add(t, new(big.Rat).Mul(x[j], new(big.Rat).Sub(y[k], y[i])))
		return t.Add(t, new(big.Rat).Mul(x[k], new(big.Rat).Sub(y[i], y[j])))
	}
	// det |x y l 1| = -l0·D(1,2,3) + l1·D(0,2,3) - l2·D(0,1,3) + l3·D(0,1,2),
	// and InCircle is its negation for counterclockwise (a, b, c).
	det := new(big.Rat).Mul(l[0], det3(1, 2, 3))
	det.Sub(det, new(big.Rat).Mul(l[1], det3(0, 2, 3)))
	det.Add(det, new(big.Rat).Mul(l[2], det3(0, 1, 3)))
	det.Sub(det, new(big.Rat).Mul(l[3], det3(0, 1, 2)))
	return det.Sign()
}

func TestInCircleBasics(t *testing.T) {
	// Unit circle through (1,0), (0,1), (-1,0); CCW order.
	a, b, c := Point{1, 0}, Point{0, 1}, Point{-1, 0}
	if InCircle(a, b, c, Point{0, 0}) != 1 {
		t.Fatal("center must be inside")
	}
	if InCircle(a, b, c, Point{2, 2}) != -1 {
		t.Fatal("far point must be outside")
	}
	if InCircle(a, b, c, Point{0, -1}) != 0 {
		t.Fatal("fourth cocircular point must be on the circle")
	}
}

func TestInCircleNearBoundary(t *testing.T) {
	a, b, c := Point{1, 0}, Point{0, 1}, Point{-1, 0}
	in := Point{0, math.Nextafter(-1, 0)}
	if InCircle(a, b, c, in) != 1 {
		t.Fatal("one ulp inside must report inside")
	}
	out := Point{0, math.Nextafter(-1, -2)}
	if InCircle(a, b, c, out) != -1 {
		t.Fatal("one ulp outside must report outside")
	}
}

func TestInCircleSymmetry(t *testing.T) {
	// Swapping two triangle corners flips orientation and hence the sign.
	r := rng.New(2)
	for i := 0; i < 500; i++ {
		a, b, c := Point{r.Float64(), r.Float64()}, Point{r.Float64(), r.Float64()}, Point{r.Float64(), r.Float64()}
		d := Point{r.Float64(), r.Float64()}
		if InCircle(a, b, c, d) != -InCircle(b, a, c, d) {
			t.Fatal("InCircle must be antisymmetric under corner swap")
		}
	}
}

func TestInCircleVsCircumcircle(t *testing.T) {
	r := rng.New(3)
	for i := 0; i < 500; i++ {
		a, b, c := Point{r.Float64(), r.Float64()}, Point{r.Float64(), r.Float64()}, Point{r.Float64(), r.Float64()}
		if Orient2D(a, b, c) <= 0 {
			a, b = b, a
		}
		if Orient2D(a, b, c) <= 0 {
			continue
		}
		d := Point{r.Float64(), r.Float64()}
		ctr := Circumcenter(a, b, c)
		r2 := Dist2(ctr, a)
		geoIn := Dist2(ctr, d) < r2*(1-1e-9)
		geoOut := Dist2(ctr, d) > r2*(1+1e-9)
		pred := InCircle(a, b, c, d)
		if geoIn && pred != 1 {
			t.Fatalf("point clearly inside but InCircle=%d", pred)
		}
		if geoOut && pred != -1 {
			t.Fatalf("point clearly outside but InCircle=%d", pred)
		}
	}
}

func TestPredicateStats(t *testing.T) {
	var st PredicateStats
	a, b, c := Point{1, 0}, Point{0, 1}, Point{-1, 0}
	Orient2DStats(a, b, c, &st)
	InCircleStats(a, b, c, Point{0, 0}, &st)
	InCircleStats(a, b, c, Point{0, -1}, &st) // exact fallback (cocircular)
	if st.Orient2DCalls != 1 || st.InCircleCalls != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if st.InCircleExact != 1 {
		t.Fatalf("cocircular case should hit the exact path: %+v", st)
	}
	// The prepared circle counts the same way: a call its filter decides
	// is a call, and a tie goes through the full predicate to the exact
	// stages.
	pc := PrepareCircle(a, b, c)
	var pst PredicateStats
	if pc.InCircleStats(Point{0, 0}, &pst) != 1 || pc.InCircleStats(Point{0, -1}, &pst) != 0 {
		t.Fatal("prepared circle: wrong sign on the unit circle")
	}
	if pst != (PredicateStats{InCircleCalls: 2, InCircleExact: 1}) {
		t.Fatalf("prepared circle stats: %+v", pst)
	}
	var merged PredicateStats
	merged.Merge(st)
	if merged.InCircleCalls != 2 {
		t.Fatal("merge failed")
	}
}

func TestDiskFrom2(t *testing.T) {
	d := DiskFrom2(Point{0, 0}, Point{2, 0})
	if d.Center.X != 1 || d.Center.Y != 0 || math.Abs(d.R2-1) > 1e-15 {
		t.Fatalf("disk %+v", d)
	}
	if !d.Contains(Point{1, 1}) || d.Contains(Point{1, 1.001}) {
		t.Fatal("containment wrong")
	}
}

func TestDiskFrom3(t *testing.T) {
	d := DiskFrom3(Point{1, 0}, Point{0, 1}, Point{-1, 0})
	if math.Abs(d.Center.X) > 1e-12 || math.Abs(d.Center.Y) > 1e-12 || math.Abs(d.R2-1) > 1e-12 {
		t.Fatalf("circumdisk %+v", d)
	}
	// Collinear fallback: diametral disk of the farthest pair.
	d = DiskFrom3(Point{0, 0}, Point{1, 0}, Point{3, 0})
	if math.Abs(d.R2-2.25) > 1e-12 {
		t.Fatalf("collinear disk %+v", d)
	}
}

func TestEmptyDisk(t *testing.T) {
	if EmptyDisk.Contains(Point{0, 0}) {
		t.Fatal("empty disk contains nothing")
	}
	if EmptyDisk.Radius() != 0 {
		t.Fatal("empty disk radius is 0")
	}
}

func TestBoundingTriangleContains(t *testing.T) {
	r := rng.New(4)
	pts := UniformSquare(r, 500)
	a, b, c := BoundingTriangle(pts)
	if Orient2D(a, b, c) <= 0 {
		t.Fatal("bounding triangle must be CCW")
	}
	for _, p := range pts {
		if Orient2D(a, b, p) <= 0 || Orient2D(b, c, p) <= 0 || Orient2D(c, a, p) <= 0 {
			t.Fatalf("point %v outside bounding triangle", p)
		}
	}
}

func TestBoundingTriangleDegenerate(t *testing.T) {
	// All points identical and the empty set must still give a valid
	// nondegenerate triangle.
	for _, pts := range [][]Point{nil, {{X: 3, Y: 3}}, {{X: 1, Y: 1}, {X: 1, Y: 1}}} {
		a, b, c := BoundingTriangle(pts)
		if Orient2D(a, b, c) == 0 {
			t.Fatal("degenerate bounding triangle")
		}
	}
}

func TestDedup(t *testing.T) {
	pts := []Point{{1, 1}, {2, 2}, {1, 1}, {3, 3}, {2, 2}}
	got := Dedup(pts)
	if len(got) != 3 || got[0] != (Point{1, 1}) || got[1] != (Point{2, 2}) || got[2] != (Point{3, 3}) {
		t.Fatalf("dedup got %v", got)
	}
}

func TestWorkloadSizes(t *testing.T) {
	r := rng.New(5)
	if len(UniformSquare(r, 100)) != 100 {
		t.Fatal("UniformSquare size")
	}
	if len(UniformDisk(r, 50)) != 50 {
		t.Fatal("UniformDisk size")
	}
	if len(OnCircle(r, 30, 0.1)) != 30 {
		t.Fatal("OnCircle size")
	}
	if len(GridJitter(r, 77, 0.5)) != 77 {
		t.Fatal("GridJitter size")
	}
	if len(GaussianCluster(r, 64, 4, 0.1)) != 64 {
		t.Fatal("GaussianCluster size")
	}
}

func TestUniformDiskInDisk(t *testing.T) {
	r := rng.New(6)
	for _, p := range UniformDisk(r, 1000) {
		if p.X*p.X+p.Y*p.Y > 1+1e-12 {
			t.Fatalf("point %v outside unit disk", p)
		}
	}
}

func TestVectorOps(t *testing.T) {
	p, q := Point{3, 4}, Point{1, 2}
	if p.Sub(q) != (Point{2, 2}) {
		t.Fatal("Sub")
	}
	if p.Dot(q) != 11 {
		t.Fatal("Dot")
	}
	if p.Cross(q) != 2 {
		t.Fatal("Cross")
	}
	if Dist(p, q) != math.Sqrt(8) {
		t.Fatal("Dist")
	}
}
