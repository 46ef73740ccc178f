package delaunay

// Native Go fuzz target for the triangulators: byte strings decode into
// small point sets on a coarse grid, where collinear and cocircular ties
// are the rule, and every path that must agree is run on the same input.
// `go test -run=Fuzz` replays the seed corpus in CI, and
// `go test -run '^$' -fuzz FuzzTriangulators ./internal/delaunay` explores
// from it.

import (
	"testing"

	"repro/internal/geom"
)

// fuzzGridPoints decodes data onto a g×g grid: the first byte picks g in
// 2..64 and each following byte pair is the point ((x mod g)/g,
// (y mod g)/g). It keeps at most 64 points, then removes duplicates.
func fuzzGridPoints(data []byte) []geom.Point {
	if len(data) == 0 {
		return nil
	}
	g := 2 + int(data[0])%63
	var pts []geom.Point
	for i := 1; i+1 < len(data) && len(pts) < 64; i += 2 {
		x, y := int(data[i])%g, int(data[i+1])%g
		pts = append(pts, geom.Point{X: float64(x) / float64(g), Y: float64(y) / float64(g)})
	}
	return geom.Dedup(pts)
}

// FuzzTriangulators requires one triangle set from Triangulate,
// ParTriangulate and GKSTriangulate, the same Stats from the sequential
// and parallel engines (Lemma 4.2; only Rounds differs), a consistent
// Delaunay mesh, and the identical mesh from a Live build captured after
// half of its rounds and resumed.
func FuzzTriangulators(f *testing.F) {
	// Seeds: empty input; one point (g = 8); a collinear diagonal and a
	// horizontal line (g = 16); a square's four cocircular corners (g = 2);
	// a cluster (g = 64).
	f.Add([]byte{})
	f.Add([]byte{6, 3, 5})
	f.Add([]byte{14, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5})
	f.Add([]byte{14, 1, 7, 4, 7, 9, 7, 12, 7, 15, 7})
	f.Add([]byte{0, 0, 0, 1, 0, 1, 1, 0, 1})
	f.Add([]byte{62, 30, 30, 31, 30, 30, 31, 31, 31, 32, 30, 29, 31, 30, 32, 32, 32})

	f.Fuzz(func(t *testing.T, data []byte) {
		pts := fuzzGridPoints(data)
		seq := Triangulate(pts)
		par := ParTriangulate(pts)
		gks, _ := GKSTriangulate(pts)

		want := SortTriangles(par.Triangles)
		if got := SortTriangles(seq.Triangles); !equalTriangles(got, want) {
			t.Fatalf("%v: Triangulate and ParTriangulate give different triangle sets (%d vs %d)", pts, len(got), len(want))
		}
		if got := SortTriangles(gks.Triangles); !equalTriangles(got, want) {
			t.Fatalf("%v: GKSTriangulate and ParTriangulate give different triangle sets (%d vs %d)", pts, len(got), len(want))
		}
		ss := seq.Stats
		ss.Rounds = par.Stats.Rounds
		if ss != par.Stats {
			t.Fatalf("%v: Triangulate stats %+v, ParTriangulate %+v", pts, seq.Stats, par.Stats)
		}
		if err := CheckConsistency(par); err != nil {
			t.Fatalf("%v: %v", pts, err)
		}
		if err := CheckDelaunay(par); err != nil {
			t.Fatalf("%v: %v", pts, err)
		}

		lv := NewLive(pts)
		for i := 0; i < par.Stats.Rounds/2; i++ {
			if _, err := lv.Step(nil); err != nil {
				t.Fatal(err)
			}
		}
		resumed, err := ResumeLive(lv.CaptureState())
		if err != nil {
			t.Fatalf("%v: ResumeLive: %v", pts, err)
		}
		got, err := resumed.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		meshEqual(t, "captured and resumed", got, par)
	})
}
