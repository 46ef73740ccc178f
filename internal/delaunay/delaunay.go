// Package delaunay implements Section 4 of the paper: randomized
// incremental Delaunay triangulation in the plane via the offline variant
// of Boissonnat and Teillaud's algorithm (Algorithm 4), and its parallel
// version (Algorithm 5, ParIncrementalDT).
//
// Both versions maintain, for every triangle t, the set E(t) of uninserted
// points that encroach on t (lie in its circumcircle), and grow the
// triangulation exclusively through ReplaceBoundary(to, f, t, v): detach t
// from face f and attach the new triangle t' = (f, v), computing E(t') from
// E(t) and E(to) by Fact 4.1. The sequential and parallel versions perform
// exactly the same multiset of ReplaceBoundary calls (Lemma 4.2), so their
// outputs are identical; only the schedule differs. Both run on one store:
// every triangle is created by store.replaceBoundary, with E(t') carved
// from an append-only i32arena, and no triangle is written after its
// creation, so both return store.finish()'s mesh.
//
// The bounding "triangle at infinity" t_b is realized as a finite triangle
// far outside the input (geom.BoundingTriangle); with exact predicates this
// yields the true Delaunay triangulation of the input for point sets whose
// Delaunay circumcircles stay within the margin — guaranteed for the
// random workloads used here and verified by CheckDelaunay in tests.
package delaunay

import (
	"sort"

	"repro/internal/geom"
)

// Tri is one d-simplex (triangle) created by the algorithm. Triangles are
// append-only; a triangle is part of the final triangulation iff its
// encroaching set is empty.
type Tri struct {
	V [3]int32 // corner point indices, counterclockwise
	E []int32  // encroaching uninserted points, ascending insertion index
}

// NoTri marks an absent triangle (the outside of a hull face).
const NoTri = int32(-1)

// Stats carries the work and depth counters the Section 4 experiments use.
type Stats struct {
	InCircleTests    int64 // InCircle tests as accounted by Theorem 4.5
	TrianglesCreated int64
	Rounds           int // parallel rounds (0 for the sequential version)
	DepDepth         int // triangle-DAG dependence depth in edges (Theorem 4.3)
}

// store holds the shared state of a triangulation run.
type store struct {
	pts   []geom.Point // input points then the 3 bounding corners
	n     int          // number of real input points
	tris  []Tri
	depth []int32 // dependence depth (in edges) of each triangle's creation
	stats Stats
	pred  *geom.PredicateStats
}

// faceKey packs an undirected edge (two point indices) into a map key.
func faceKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func faceEnds(k uint64) (int32, int32) {
	return int32(k >> 32), int32(uint32(k))
}

// isBoundingEdge reports whether the face joins two bounding-triangle
// corners (such faces have exactly one incident triangle forever).
func (s *store) isBoundingEdge(k uint64) bool {
	a, b := faceEnds(k)
	return int(a) >= s.n && int(b) >= s.n
}

// logCap is the initial capacity of the triangle log of a run over n
// points: the run creates O(n) triangles (Theorem 4.5's accounting), so
// the log's appends rarely regrow it.
func logCap(n int) int { return 4*n + 16 }

func newStore(pts []geom.Point) *store {
	n := len(pts)
	a, b, c := geom.BoundingTriangle(pts)
	all := make([]geom.Point, n, n+3)
	copy(all, pts)
	all = append(all, a, b, c)
	s := &store{pts: all, n: n, pred: &geom.PredicateStats{},
		tris: make([]Tri, 0, logCap(n)), depth: make([]int32, 0, logCap(n))}
	// The bounding triangle t_b encroaches on every input point.
	e := make([]int32, n)
	for i := range e {
		e[i] = int32(i)
	}
	v := [3]int32{int32(n), int32(n + 1), int32(n + 2)}
	if geom.Orient2D(all[v[0]], all[v[1]], all[v[2]]) < 0 {
		v[1], v[2] = v[2], v[1]
	}
	s.tris = append(s.tris, Tri{V: v, E: e})
	s.depth = append(s.depth, 0)
	s.stats.TrianglesCreated++
	return s
}

// minE returns the earliest encroaching point of triangle t, or n+3 (past
// every real point) when E(t) is empty or t is absent.
func (s *store) minE(t int32) int32 {
	if t == NoTri {
		return int32(s.n + 3)
	}
	e := s.tris[t].E
	if len(e) == 0 {
		return int32(s.n + 3)
	}
	return e[0]
}

// newTriData computes the corner array and encroaching set of the triangle
// t' = (f, v) replacing t across f, per Fact 4.1: points in E(t)∩E(to) are
// included without a test; points in the symmetric difference are tested
// with InCircle. The returned test count feeds Theorem 4.5's accounting.
// to == NoTri (hull face of t_b) means all candidates come from E(t).
// out is the destination for the encroacher list; it must be empty with
// capacity at least len(E(t))+len(E(to)) so the appends below never
// reallocate — which is what lets replaceBoundary carve it from an
// i32arena.
func (s *store) newTriData(to int32, fk uint64, t int32, v int32, pred *geom.PredicateStats, out []int32) (tri Tri, tests int64) {
	a, b := faceEnds(fk)
	corners := [3]int32{a, b, v}
	if geom.Orient2DStats(s.pts[a], s.pts[b], s.pts[v], pred) < 0 {
		corners[0], corners[1] = corners[1], corners[0]
	}
	pa, pb, pc := s.pts[corners[0]], s.pts[corners[1]], s.pts[corners[2]]

	et := s.tris[t].E
	var eo []int32
	if to != NoTri {
		eo = s.tris[to].E
	}
	// Merge the two sorted lists, classifying common vs. exclusive points.
	i, j := 0, 0
	for i < len(et) || j < len(eo) {
		var w int32
		common := false
		switch {
		case j >= len(eo) || (i < len(et) && et[i] < eo[j]):
			w = et[i]
			i++
		case i >= len(et) || eo[j] < et[i]:
			w = eo[j]
			j++
		default:
			w = et[i]
			common = true
			i++
			j++
		}
		if w == v {
			continue
		}
		if common {
			out = append(out, w) // Fact 4.1: no test needed
			continue
		}
		tests++
		if geom.InCircleStats(pa, pb, pc, s.pts[w], pred) > 0 {
			out = append(out, w)
		}
	}
	return Tri{V: corners, E: out}, tests
}

// fire describes one ReplaceBoundary call: face fk is ripped from the t
// side (whose earliest encroacher is the point being inserted) with to on
// the other side (NoTri for hull faces of the bounding triangle).
type fire struct {
	fk    uint64
	t, to int32
}

// replaceBoundary computes ReplaceBoundary(f.to, f.fk, f.t, v)'s new
// triangle and its dependence depth, carving the encroacher list from ea.
// It only reads the store; both engines create every triangle through it
// and append the result to the log themselves.
//
//ridt:noalloc
func (s *store) replaceBoundary(f fire, v int32, pred *geom.PredicateStats, ea *i32arena) (tri Tri, depth int32, tests int64) {
	need := len(s.tris[f.t].E)
	depth = s.depth[f.t] + 1
	if f.to != NoTri {
		need += len(s.tris[f.to].E)
		depth = max(depth, s.depth[f.to]+1)
	}
	tri, tests = s.newTriData(f.to, f.fk, f.t, v, pred, ea.take(need))
	ea.commit(len(tri.E))
	return tri, depth, tests
}

// Mesh is the final result of a triangulation run.
type Mesh struct {
	Points    []geom.Point // input points followed by the 3 bounding corners
	N         int          // number of input points
	Triangles []Tri        // final triangles (E empty), incl. those using bounding corners
	Stats     Stats
}

// InnerTriangles returns the final triangles all of whose corners are input
// points (i.e., the Delaunay triangulation of the input, excluding the
// artificial hull to the bounding corners).
func (m *Mesh) InnerTriangles() []Tri {
	var out []Tri
	for _, t := range m.Triangles {
		if int(t.V[0]) < m.N && int(t.V[1]) < m.N && int(t.V[2]) < m.N {
			out = append(out, t)
		}
	}
	return out
}

// finish extracts the final mesh from a store.
func (s *store) finish() *Mesh {
	var final []Tri
	for i := range s.tris {
		if len(s.tris[i].E) == 0 {
			t := s.tris[i]
			// Drop the E header entirely: a zero-length slice still points
			// at its backing array — here an i32arena chunk — and would pin
			// the run's whole encroacher storage for the Mesh's lifetime.
			t.E = nil
			final = append(final, t)
		}
	}
	maxDepth := int32(0)
	for _, d := range s.depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	s.stats.DepDepth = int(maxDepth)
	return &Mesh{Points: s.pts, N: s.n, Triangles: final, Stats: s.stats}
}

// Sequential implementation (Algorithm 4) -------------------------------

// Triangulate runs the sequential incremental algorithm: points are
// inserted in slice order (callers wanting the randomized guarantees pass
// a pre-shuffled slice). Duplicate points must have been removed.
//
// It runs on the round engine's store: E lists come from an i32arena, and
// every triangle is created by the shared replaceBoundary. An alive
// triangle's E holds only uninserted points, so the cavity R(v) is exactly
// the set of triangles with E(t)[0] == v, and each of them dies when v is
// inserted. R(v) is read from an intrusive bucket per point (head, tail
// and next triangle ids, in creation order, so the output order is the
// one per-point lists gave); a neighbour across a cavity face is interior
// iff its minE is v. No triangle is written after its creation, so the
// mesh is s.finish()'s.
func Triangulate(pts []geom.Point) *Mesh {
	s := newStore(pts)
	n := s.n
	head := make([]int32, n) // first triangle of R(v), in creation order
	tail := make([]int32, n) // last triangle of R(v); valid once head is set
	for i := range head {
		head[i] = NoTri
	}
	next := make([]int32, 0, cap(s.tris)) // next triangle in its bucket
	// faces maps a face to its up-to-two incident alive triangles.
	faces := make(map[uint64][2]int32, 4*n+4)
	tb := s.tris[0]
	for e := 0; e < 3; e++ {
		faces[faceKey(tb.V[e], tb.V[(e+1)%3])] = [2]int32{0, NoTri}
	}
	ea := &i32arena{}
	for v := int32(0); int(v) < n; v++ {
		// File the triangles the previous insertion created under their
		// earliest encroachers. The ones this insertion creates encroach
		// only on points after v, so R(v) is complete before it is walked.
		for id := int32(len(next)); int(id) < len(s.tris); id++ {
			next = append(next, NoTri)
			if e := s.tris[id].E; len(e) > 0 {
				if head[e[0]] == NoTri {
					head[e[0]] = id
				} else {
					next[tail[e[0]]] = id
				}
				tail[e[0]] = id
			}
		}
		// ReplaceBoundary on every face of R(v) whose other side is not in
		// R(v). The new faces all end at v, so they never alias a face of
		// the cavity still to be read.
		for t := head[v]; t != NoTri; t = next[t] {
			tv := s.tris[t].V
			for e := 0; e < 3; e++ {
				fk := faceKey(tv[e], tv[(e+1)%3])
				ent := faces[fk]
				to := ent[0]
				if to == t {
					to = ent[1]
				}
				if m := s.minE(to); m < v {
					panic("delaunay: face entry references a detached triangle")
				} else if m == v {
					// Interior to the cavity: the face dies with R(v), once
					// both of its triangles (bucketed in id order) read it.
					if to < t {
						delete(faces, fk)
					}
					continue
				}
				tri, d, tests := s.replaceBoundary(fire{fk, t, to}, v, s.pred, ea)
				id := int32(len(s.tris))
				s.tris = append(s.tris, tri)
				s.depth = append(s.depth, d)
				s.stats.InCircleTests += tests
				s.stats.TrianglesCreated++
				// fk now borders t' instead of t; the two new faces of t'
				// gain t' as an incident triangle.
				if ent[0] == t {
					ent[0] = id
				} else {
					ent[1] = id
				}
				faces[fk] = ent
				a, b := faceEnds(fk)
				for _, nf := range [2]uint64{faceKey(a, v), faceKey(b, v)} {
					if ne, ok := faces[nf]; ok {
						ne[1] = id
						faces[nf] = ne
					} else {
						faces[nf] = [2]int32{id, NoTri}
					}
				}
			}
		}
	}
	return s.finish()
}

// SortTriangles returns the triangles' corner triples in a canonical order
// for cross-implementation comparison.
func SortTriangles(tris []Tri) [][3]int32 {
	out := make([][3]int32, len(tris))
	for i, t := range tris {
		v := t.V
		// Canonicalize corner order.
		if v[0] > v[1] {
			v[0], v[1] = v[1], v[0]
		}
		if v[1] > v[2] {
			v[1], v[2] = v[2], v[1]
		}
		if v[0] > v[1] {
			v[0], v[1] = v[1], v[0]
		}
		out[i] = v
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	return out
}
