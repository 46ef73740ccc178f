package delaunay

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

func randPoints(seed uint64, n int) []geom.Point {
	return geom.UniformSquare(rng.New(seed), n)
}

// TestNonFiniteInputRejected: every engine refuses a point with a NaN or
// infinite coordinate with an error wrapping ErrInvalidInput that names
// the point. The exact predicates answer 0 on such a point, so without the
// check each engine returned a wrong mesh (the bare bounding triangle, or
// a clockwise triangle from GKS) and no error.
func TestNonFiniteInputRejected(t *testing.T) {
	engines := map[string]func([]geom.Point){
		"Triangulate":    func(p []geom.Point) { Triangulate(p) },
		"ParTriangulate": func(p []geom.Point) { ParTriangulate(p) },
		"GKSTriangulate": func(p []geom.Point) { GKSTriangulate(p) },
		"NewLive": func(p []geom.Point) {
			if _, err := NewLive(p).Run(nil); err != nil {
				t.Fatalf("Live run: %v", err)
			}
		},
	}
	for _, bad := range []geom.Point{{X: math.NaN(), Y: 0}, {X: math.Inf(1), Y: 0}, {X: 0, Y: math.Inf(-1)}} {
		pts := randPoints(3, 200)
		pts = append(pts[:100:100], append([]geom.Point{bad}, pts[100:]...)...)
		for name, run := range engines {
			func() {
				defer func() {
					r := recover()
					err, ok := r.(error)
					if !ok || !errors.Is(err, ErrInvalidInput) {
						t.Fatalf("%s on %v: recovered %v, want an error wrapping ErrInvalidInput", name, bad, r)
					}
					if !strings.Contains(err.Error(), "point 100 ") {
						t.Errorf("%s on %v: %q does not name point 100", name, bad, err)
					}
				}()
				run(pts)
			}()
		}
	}
}

func TestTriangulateTiny(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}}
	m := Triangulate(pts)
	if err := CheckConsistency(m); err != nil {
		t.Fatal(err)
	}
	if err := CheckDelaunay(m); err != nil {
		t.Fatal(err)
	}
	inner := m.InnerTriangles()
	if len(inner) != 1 {
		t.Fatalf("inner triangles = %d, want 1", len(inner))
	}
}

func TestTriangulateSinglePoint(t *testing.T) {
	m := Triangulate([]geom.Point{{X: 0.5, Y: 0.5}})
	if err := CheckConsistency(m); err != nil {
		t.Fatal(err)
	}
	if len(m.Triangles) != 3 {
		t.Fatalf("triangles = %d, want 3", len(m.Triangles))
	}
}

func TestTriangulateEmpty(t *testing.T) {
	m := Triangulate(nil)
	if len(m.Triangles) != 1 {
		t.Fatalf("empty input should leave the bounding triangle, got %d", len(m.Triangles))
	}
}

func TestTriangulateRandomConsistency(t *testing.T) {
	for _, n := range []int{2, 3, 5, 10, 50, 200} {
		pts := randPoints(uint64(n)*7+1, n)
		m := Triangulate(pts)
		if err := CheckConsistency(m); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := CheckDelaunay(m); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestParTriangulateMatchesSequential(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 33, 100, 400} {
		pts := randPoints(uint64(n)*13+5, n)
		ms := Triangulate(pts)
		mp := ParTriangulate(pts)
		ts := SortTriangles(ms.Triangles)
		tp := SortTriangles(mp.Triangles)
		if len(ts) != len(tp) {
			t.Fatalf("n=%d: sequential has %d triangles, parallel %d", n, len(ts), len(tp))
		}
		for i := range ts {
			if ts[i] != tp[i] {
				t.Fatalf("n=%d: triangle %d differs: %v vs %v", n, i, ts[i], tp[i])
			}
		}
		if err := CheckConsistency(mp); err != nil {
			t.Fatalf("n=%d parallel: %v", n, err)
		}
	}
}

func TestParTriangulateSameInCircleCount(t *testing.T) {
	// Lemma 4.2: sequential and parallel perform the same ReplaceBoundary
	// calls, so the InCircle accounting must agree exactly.
	for _, n := range []int{10, 100, 500} {
		pts := randPoints(uint64(n), n)
		ms := Triangulate(pts)
		mp := ParTriangulate(pts)
		if ms.Stats.InCircleTests != mp.Stats.InCircleTests {
			t.Fatalf("n=%d: InCircle tests differ: seq=%d par=%d",
				n, ms.Stats.InCircleTests, mp.Stats.InCircleTests)
		}
		if ms.Stats.TrianglesCreated != mp.Stats.TrianglesCreated {
			t.Fatalf("n=%d: triangles created differ: seq=%d par=%d",
				n, ms.Stats.TrianglesCreated, mp.Stats.TrianglesCreated)
		}
	}
}

// TestPredicateCountsGolden pins both engines' Stats and predicate
// counters on a 4096-point disk and on the shuffled lattice to the values
// recorded before newTriData tested through a prepared circle: on these
// inputs the prepared filter decides a call only where the full
// predicate's stage A would have, so every count, the exact ones
// included, stays what the full predicate alone gave.
func TestPredicateCountsGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		pts  []geom.Point
		st   Stats // Rounds as ParTriangulate reports it
		pred geom.PredicateStats
	}{
		{"disk", geom.UniformDisk(rng.New(1), 4096),
			Stats{InCircleTests: 446623, TrianglesCreated: 24339, Rounds: 60, DepDepth: 60},
			geom.PredicateStats{Orient2DCalls: 24338, InCircleCalls: 446623}},
		{"lattice", shuffledLattice(1, 4096),
			Stats{InCircleTests: 409418, TrianglesCreated: 20831, Rounds: 58, DepDepth: 58},
			geom.PredicateStats{Orient2DCalls: 20830, InCircleCalls: 409418, InCircleExact: 18773}},
	} {
		s := newStore(c.pts)
		s.insertSequential()
		seq := s.finish()
		want := c.st
		want.Rounds = 0
		if seq.Stats != want || *s.pred != c.pred {
			t.Errorf("%s: Triangulate stats %+v, predicates %+v; want %+v, %+v", c.name, seq.Stats, *s.pred, want, c.pred)
		}
		e := newRoundEngine(c.pts)
		for e.step() {
		}
		if par := e.s.finish(); par.Stats != c.st || *e.s.pred != c.pred {
			t.Errorf("%s: ParTriangulate stats %+v, predicates %+v; want %+v, %+v", c.name, par.Stats, *e.s.pred, c.st, c.pred)
		}
	}
}

func TestDependenceDepthMatches(t *testing.T) {
	// The parallel round count equals the triangle-DAG depth: a triangle
	// created in round r has dependence depth exactly r.
	for _, n := range []int{50, 300} {
		pts := randPoints(uint64(n)+99, n)
		mp := ParTriangulate(pts)
		if mp.Stats.Rounds != mp.Stats.DepDepth {
			t.Fatalf("n=%d: rounds=%d depDepth=%d", n, mp.Stats.Rounds, mp.Stats.DepDepth)
		}
		ms := Triangulate(pts)
		if ms.Stats.DepDepth != mp.Stats.DepDepth {
			t.Fatalf("n=%d: seq depth=%d par depth=%d", n, ms.Stats.DepDepth, mp.Stats.DepDepth)
		}
	}
}

func TestDepthIsLogarithmic(t *testing.T) {
	// Theorem 4.3: dependence depth O(d log n) whp. Check depth/log2(n)
	// stays under a generous constant for growing n.
	for _, n := range []int{100, 1000, 4000} {
		pts := randPoints(uint64(n)*3+7, n)
		m := ParTriangulate(pts)
		ratio := float64(m.Stats.DepDepth) / math.Log2(float64(n))
		if ratio > 12 {
			t.Fatalf("n=%d: depth %d is %.1fx log2(n); dependence structure not shallow",
				n, m.Stats.DepDepth, ratio)
		}
	}
}

func TestInCircleBoundTheorem45(t *testing.T) {
	// Theorem 4.5: expected InCircle tests <= 24 n ln n + O(n).
	n := 2000
	pts := randPoints(123, n)
	m := Triangulate(pts)
	bound := 24*float64(n)*math.Log(float64(n)) + 40*float64(n)
	if float64(m.Stats.InCircleTests) > bound {
		t.Fatalf("InCircle tests %d exceed Theorem 4.5 bound %.0f", m.Stats.InCircleTests, bound)
	}
}

func TestFact41Random(t *testing.T) {
	// Reproduces Figure 1 as a checked invariant: random configurations of
	// two triangles sharing a face plus a point encroaching exactly one.
	r := rng.New(42)
	trials := 0
	for trials < 50 {
		f := [2]geom.Point{{X: r.Float64(), Y: r.Float64()}, {X: r.Float64(), Y: r.Float64()}}
		u := geom.Point{X: r.Float64(), Y: r.Float64()}
		uo := geom.Point{X: r.Float64(), Y: r.Float64()}
		v := geom.Point{X: r.Float64(), Y: r.Float64()}
		// Need u, uo on opposite sides of f and v encroaching t only.
		if geom.Orient2D(f[0], f[1], u)*geom.Orient2D(f[0], f[1], uo) >= 0 {
			continue
		}
		mk := func(apex geom.Point) [3]geom.Point {
			tri := [3]geom.Point{f[0], f[1], apex}
			if geom.Orient2D(tri[0], tri[1], tri[2]) < 0 {
				tri[0], tri[1] = tri[1], tri[0]
			}
			return tri
		}
		tt, tto := mk(u), mk(uo)
		if !(geom.InCircle(tt[0], tt[1], tt[2], v) > 0) || geom.InCircle(tto[0], tto[1], tto[2], v) > 0 {
			continue
		}
		trials++
		cand := geom.UniformSquare(r, 200)
		if err := CheckFact41(cand, f, u, uo, v); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCocircularFuzz(t *testing.T) {
	// Near-cocircular points stress the exact-arithmetic fallback.
	r := rng.New(7)
	pts := geom.Dedup(geom.OnCircle(r, 60, 1e-9))
	m := Triangulate(pts)
	if err := CheckConsistency(m); err != nil {
		t.Fatal(err)
	}
	if err := CheckDelaunay(m); err != nil {
		t.Fatal(err)
	}
	mp := ParTriangulate(pts)
	sp, pp := SortTriangles(m.Triangles), SortTriangles(mp.Triangles)
	for i := range sp {
		if sp[i] != pp[i] {
			t.Fatalf("triangle %d differs on cocircular input", i)
		}
	}
}

func TestGridPoints(t *testing.T) {
	pts := geom.Dedup(geom.GridJitter(rng.New(5), 100, 0.3))
	perm := rng.New(6).Perm(len(pts))
	shuffled := make([]geom.Point, len(pts))
	for i, p := range perm {
		shuffled[i] = pts[p]
	}
	m := ParTriangulate(shuffled)
	if err := CheckConsistency(m); err != nil {
		t.Fatal(err)
	}
	if err := CheckDelaunay(m); err != nil {
		t.Fatal(err)
	}
}
