package delaunay

import (
	"fmt"

	"repro/internal/geom"
)

// This file implements the Guibas–Knuth–Sharir (GKS) randomized incremental
// Delaunay algorithm — the "standard textbook version" the paper contrasts
// with Boissonnat–Teillaud (Section 4). GKS locates the triangle containing
// each new point through a history DAG of all triangle updates, splits it,
// and restores the Delaunay property with Lawson edge flips.
//
// The paper's point: GKS is inherently sequential — a single iteration's
// flip cascade can have linear depth — whereas the BT variant has
// O(d log n) dependence depth. GKS is provided as the sequential baseline
// for the Section 4 benchmarks and as a cross-validator: under general
// position the Delaunay triangulation is unique, so GKS and BT must produce
// identical triangle sets.

// GKSStats counts the work of a GKS run.
type GKSStats struct {
	InCircleTests    int64
	OrientTests      int64
	Flips            int64
	LocateSteps      int64 // history-DAG nodes visited during location
	MaxLocateDepth   int
	TrianglesCreated int64
}

type gksTri struct {
	v        [3]int32 // CCW corners
	children []int32  // history DAG: triangles that replaced this one
}

type gksState struct {
	pts   []geom.Point
	tris  []gksTri
	faces map[uint64][2]int32
	stats GKSStats
	pred  *geom.PredicateStats
}

// GKSTriangulate runs the GKS incremental algorithm over the points in
// slice order (pre-shuffled by the caller; duplicates removed). The output
// mesh has the same shape as Triangulate's. Like the other triangulators
// it panics with an error wrapping ErrInvalidInput on a non-finite point.
func GKSTriangulate(pts []geom.Point) (*Mesh, GKSStats) {
	if err := checkFinite(pts); err != nil {
		panic(err)
	}
	n := len(pts)
	a, b, c := geom.BoundingTriangle(pts)
	all := make([]geom.Point, n, n+3)
	copy(all, pts)
	all = append(all, a, b, c)
	s := &gksState{
		pts:   all,
		faces: make(map[uint64][2]int32, 4*n+8),
		pred:  &geom.PredicateStats{},
	}
	root := [3]int32{int32(n), int32(n + 1), int32(n + 2)}
	if geom.Orient2DStats(all[root[0]], all[root[1]], all[root[2]], s.pred) < 0 {
		root[1], root[2] = root[2], root[1]
	}
	s.tris = append(s.tris, gksTri{v: root})
	s.stats.TrianglesCreated++
	for e := 0; e < 3; e++ {
		s.faces[faceKey(root[e], root[(e+1)%3])] = [2]int32{0, NoTri}
	}
	for i := 0; i < n; i++ {
		s.insert(int32(i))
	}
	// Collect the live triangles (no children).
	var final []Tri
	for id := range s.tris {
		if s.tris[id].children == nil {
			final = append(final, Tri{V: s.tris[id].v})
		}
	}
	mesh := &Mesh{Points: all, N: n, Triangles: final}
	mesh.Stats.InCircleTests = s.stats.InCircleTests
	mesh.Stats.TrianglesCreated = s.stats.TrianglesCreated
	return mesh, s.stats
}

// contains reports whether p is inside (or on the boundary of) triangle t.
func (s *gksState) contains(t int32, p int32) bool {
	v := s.tris[t].v
	for e := 0; e < 3; e++ {
		s.stats.OrientTests++
		if geom.Orient2DStats(s.pts[v[e]], s.pts[v[(e+1)%3]], s.pts[p], s.pred) < 0 {
			return false
		}
	}
	return true
}

// locate walks the history DAG to a live triangle containing p.
func (s *gksState) locate(p int32) int32 {
	cur := int32(0)
	depth := 0
	for {
		s.stats.LocateSteps++
		depth++
		ch := s.tris[cur].children
		if ch == nil {
			if depth > s.stats.MaxLocateDepth {
				s.stats.MaxLocateDepth = depth
			}
			return cur
		}
		next := NoTri
		for _, child := range ch {
			if s.contains(child, p) {
				next = child
				break
			}
		}
		if next == NoTri {
			panic(fmt.Sprintf("delaunay/gks: point %d lost in history DAG at node %d", p, cur))
		}
		cur = next
	}
}

func (s *gksState) newTri(a, b, c int32) int32 {
	id := int32(len(s.tris))
	s.tris = append(s.tris, gksTri{v: [3]int32{a, b, c}})
	s.stats.TrianglesCreated++
	return id
}

func (s *gksState) replaceFace(fk uint64, old, nw int32) {
	e, ok := s.faces[fk]
	if !ok {
		panic("delaunay/gks: missing face")
	}
	if e[0] == old {
		e[0] = nw
	} else if e[1] == old {
		e[1] = nw
	} else {
		panic("delaunay/gks: face does not reference the old triangle")
	}
	s.faces[fk] = e
}

func (s *gksState) neighborAcross(fk uint64, t int32) int32 {
	e, ok := s.faces[fk]
	if !ok {
		return NoTri
	}
	if e[0] == t {
		return e[1]
	}
	return e[0]
}

// thirdVertex returns the corner of triangle t not on edge (a, b).
func (s *gksState) thirdVertex(t, a, b int32) int32 {
	for _, v := range s.tris[t].v {
		if v != a && v != b {
			return v
		}
	}
	panic("delaunay/gks: degenerate triangle")
}

// insert adds point p: locate, split into three, legalize outward.
func (s *gksState) insert(p int32) {
	t := s.locate(p)
	v := s.tris[t].v
	// Split t into three triangles around p (t's corners are CCW, so each
	// (v[e], v[e+1], p) is CCW for strictly interior p).
	var nt [3]int32
	for e := 0; e < 3; e++ {
		nt[e] = s.newTri(v[e], v[(e+1)%3], p)
	}
	s.tris[t].children = append(s.tris[t].children, nt[0], nt[1], nt[2])
	for e := 0; e < 3; e++ {
		a, b := v[e], v[(e+1)%3]
		s.replaceFace(faceKey(a, b), t, nt[e])
		s.faces[faceKey(a, p)] = addToFacePair(s.faces[faceKey(a, p)], nt[e], faceExists(s.faces, faceKey(a, p)))
		s.faces[faceKey(b, p)] = addToFacePair(s.faces[faceKey(b, p)], nt[e], faceExists(s.faces, faceKey(b, p)))
	}
	for e := 0; e < 3; e++ {
		s.legalize(nt[e], v[e], v[(e+1)%3], p)
	}
}

func faceExists(m map[uint64][2]int32, k uint64) bool {
	_, ok := m[k]
	return ok
}

func addToFacePair(e [2]int32, t int32, existed bool) [2]int32 {
	if !existed {
		return [2]int32{t, NoTri}
	}
	if e[1] != NoTri {
		panic("delaunay/gks: face already has two triangles")
	}
	e[1] = t
	return e
}

// legalize checks edge (a, b) of triangle t (whose apex is p) and flips it
// if the opposite vertex encroaches, recursing on the two exposed edges.
func (s *gksState) legalize(t, a, b, p int32) {
	fk := faceKey(a, b)
	to := s.neighborAcross(fk, t)
	if to == NoTri {
		return // hull edge of the bounding triangle
	}
	d := s.thirdVertex(to, a, b)
	tv := s.tris[t].v
	s.stats.InCircleTests++
	if geom.InCircleStats(s.pts[tv[0]], s.pts[tv[1]], s.pts[tv[2]], s.pts[d], s.pred) <= 0 {
		return // edge is legal
	}
	s.stats.Flips++
	// Flip edge (a,b) -> (p,d). Order the new triangles CCW: t = (a,b,p)
	// CCW means (a,d,p)... derive via orientation tests for safety.
	n1 := s.mkCCW(a, d, p)
	n2 := s.mkCCW(d, b, p)
	s.tris[t].children = append(s.tris[t].children, n1, n2)
	s.tris[to].children = append(s.tris[to].children, n1, n2)
	// Rewire faces: (a,d) and (d,b) belonged to `to`; (a,p) and (p,b)
	// belonged to `t`; edge (a,b) disappears; edge (p,d) is new.
	s.replaceFace(faceKey(a, d), to, n1)
	s.replaceFace(faceKey(d, b), to, n2)
	s.replaceFace(faceKey(a, p), t, n1)
	s.replaceFace(faceKey(b, p), t, n2)
	delete(s.faces, fk)
	s.faces[faceKey(p, d)] = [2]int32{n1, n2}
	// The two edges now opposite p may have become illegal.
	s.legalize(n1, a, d, p)
	s.legalize(n2, d, b, p)
}

// mkCCW creates a triangle with the given corners ordered CCW.
func (s *gksState) mkCCW(a, b, c int32) int32 {
	s.stats.OrientTests++
	if geom.Orient2DStats(s.pts[a], s.pts[b], s.pts[c], s.pred) < 0 {
		b, c = c, b
	}
	return s.newTri(a, b, c)
}
