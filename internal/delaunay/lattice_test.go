package delaunay

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// shuffledLattice returns GridJitter(·, 0) in a seeded random order: the
// exactly cocircular input of perfbench recover. Its coordinates and its
// bounding corners are dyadic, so every coordinate difference a predicate
// forms is exact.
func shuffledLattice(seed uint64, n int) []geom.Point {
	r := rng.New(seed)
	pts := geom.GridJitter(r, n, 0)
	rng.ShuffleSlice(r, pts)
	return pts
}

// hashTriangles is the FNV-64a hash of a sorted triangle set, each corner
// index written as 4 little-endian bytes.
func hashTriangles(ts [][3]int32) uint64 {
	h := fnv.New64a()
	var buf [12]byte
	for _, t := range ts {
		for k, v := range t {
			binary.LittleEndian.PutUint32(buf[4*k:], uint32(v))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

func equalTriangles(a, b [][3]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// latticeTriangulations runs the three triangulators on pts and requires
// one sorted triangle set from all of them, which it returns with the
// meshes.
func latticeTriangulations(t *testing.T, name string, pts []geom.Point) ([][3]int32, []*Mesh) {
	t.Helper()
	seq := Triangulate(pts)
	par := ParTriangulate(pts)
	gks, _ := GKSTriangulate(pts)
	want := SortTriangles(par.Triangles)
	for _, m := range []struct {
		alg  string
		mesh *Mesh
	}{{"Triangulate", seq}, {"GKSTriangulate", gks}} {
		if got := SortTriangles(m.mesh.Triangles); !equalTriangles(got, want) {
			t.Fatalf("%s: %s and ParTriangulate give different triangle sets (%d vs %d triangles)",
				name, m.alg, len(got), len(want))
		}
	}
	return want, []*Mesh{seq, par, gks}
}

// TestLatticeTriangulations pins the three triangulators on the exactly
// cocircular lattice, where almost every InCircle call that leaves the
// float filter is a true tie. The Delaunay triangulation of such input is
// not unique, so the test pins the one the paper's tie rule (a cocircular
// point does not encroach) produces: identical sets from Triangulate,
// ParTriangulate and GKSTriangulate, each a consistent Delaunay mesh,
// hashing to the value recorded before the predicates gained their
// expansion stages. Scaling by 2^±40 multiplies every determinant by a
// power of two, so it preserves every predicate sign and must leave the
// triangle set unchanged.
func TestLatticeTriangulations(t *testing.T) {
	golden := map[string]uint64{
		"n=1024/seed=1": 0x3472d11f86177d68,
		"n=1024/seed=2": 0xedd4baf543f9845d,
		"n=1024/seed=3": 0x234aaf3b6477bedc,
		"n=4096/seed=1": 0x9803be91eeee6314,
		"n=4096/seed=2": 0x4f70bff504687f81,
		"n=4096/seed=3": 0xed93506dd661c14d,
	}
	for _, n := range []int{1024, 4096} {
		for seed := uint64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("n=%d/seed=%d", n, seed)
			if testing.Short() && n > 1024 {
				continue
			}
			pts := shuffledLattice(seed, n)
			want, meshes := latticeTriangulations(t, name, pts)
			for _, m := range meshes {
				if err := CheckConsistency(m); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			// The three meshes share their points and their triangle set,
			// the only inputs of CheckDelaunay, so one check covers all.
			if err := CheckDelaunay(meshes[0]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if h := hashTriangles(want); h != golden[name] {
				t.Errorf("%s: triangle set hash %#x, want %#x", name, h, golden[name])
			}
			for _, e := range []int{40, -40} {
				scaled := make([]geom.Point, len(pts))
				for i, p := range pts {
					scaled[i] = geom.Point{X: math.Ldexp(p.X, e), Y: math.Ldexp(p.Y, e)}
				}
				sname := fmt.Sprintf("%s/scale=2^%d", name, e)
				if got, _ := latticeTriangulations(t, sname, scaled); !equalTriangles(got, want) {
					t.Fatalf("%s: triangle set differs from the unscaled lattice's", sname)
				}
			}
		}
	}
}
