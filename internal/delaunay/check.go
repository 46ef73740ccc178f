package delaunay

import (
	"fmt"

	"repro/internal/geom"
)

// CheckDelaunay verifies the Delaunay property by brute force: no input
// point lies strictly inside the circumcircle of any final triangle whose
// corners are all input points. O(T·n); intended for tests.
func CheckDelaunay(m *Mesh) error {
	for _, t := range m.InnerTriangles() {
		a, b, c := m.Points[t.V[0]], m.Points[t.V[1]], m.Points[t.V[2]]
		for i := 0; i < m.N; i++ {
			if int32(i) == t.V[0] || int32(i) == t.V[1] || int32(i) == t.V[2] {
				continue
			}
			if geom.InCircle(a, b, c, m.Points[i]) > 0 {
				return fmt.Errorf("delaunay violated: point %d inside circumcircle of triangle %v", i, t.V)
			}
		}
	}
	return nil
}

// CheckConsistency verifies structural invariants of the final mesh:
//   - exactly 2(n+3) - 5 = 2n+1 triangles (Euler's formula for a
//     triangulation of n+3 points whose convex hull is the 3 bounding
//     corners), for n >= 1;
//   - every edge is incident to exactly two triangles, except the three
//     bounding-triangle edges which have exactly one;
//   - every triangle is counterclockwise.
func CheckConsistency(m *Mesh) error {
	n := m.N
	if n >= 1 {
		want := 2*n + 1
		if len(m.Triangles) != want {
			return fmt.Errorf("triangle count = %d, want %d", len(m.Triangles), want)
		}
	}
	faceCount := make(map[uint64]int)
	for _, t := range m.Triangles {
		if geom.Orient2D(m.Points[t.V[0]], m.Points[t.V[1]], m.Points[t.V[2]]) <= 0 {
			return fmt.Errorf("triangle %v is not counterclockwise", t.V)
		}
		for e := 0; e < 3; e++ {
			faceCount[faceKey(t.V[e], t.V[(e+1)%3])]++
		}
	}
	s := &store{n: n}
	for fk, c := range faceCount {
		isBound := s.isBoundingEdge(fk)
		switch {
		case isBound && c != 1:
			return fmt.Errorf("bounding edge %x has %d incident triangles, want 1", fk, c)
		case !isBound && c != 2:
			a, b := faceEnds(fk)
			return fmt.Errorf("edge (%d,%d) has %d incident triangles, want 2", a, b, c)
		}
	}
	return nil
}

// CheckFact41 verifies Fact 4.1 directly for a ReplaceBoundary instance:
// given CCW triangles t=(f,u) and to=(f,uo) sharing face f, and a point v
// encroaching t but not to, every point of E(t)∩E(to) encroaches t'=(f,v)
// and every point encroaching t' is in E(t)∪E(to). The caller supplies the
// full candidate point set; E sets are computed here by brute force.
func CheckFact41(pts []geom.Point, f [2]geom.Point, u, uo, v geom.Point) error {
	mk := func(apex geom.Point) [3]geom.Point {
		tri := [3]geom.Point{f[0], f[1], apex}
		if geom.Orient2D(tri[0], tri[1], tri[2]) < 0 {
			tri[0], tri[1] = tri[1], tri[0]
		}
		return tri
	}
	t, to, tp := mk(u), mk(uo), mk(v)
	encroaches := func(tri [3]geom.Point, p geom.Point) bool {
		return geom.InCircle(tri[0], tri[1], tri[2], p) > 0
	}
	if !encroaches(t, v) || encroaches(to, v) {
		return fmt.Errorf("precondition violated: v must encroach t but not to")
	}
	for _, p := range pts {
		if p == v {
			continue
		}
		inT, inTo, inTp := encroaches(t, p), encroaches(to, p), encroaches(tp, p)
		if inT && inTo && !inTp {
			return fmt.Errorf("point %v in E(t)∩E(to) but not in E(t')", p)
		}
		if inTp && !(inT || inTo) {
			return fmt.Errorf("point %v in E(t') but not in E(t)∪E(to)", p)
		}
	}
	return nil
}
