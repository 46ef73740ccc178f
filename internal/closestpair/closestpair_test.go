package closestpair

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rng"
)

func uniqPoints(seed uint64, n int) []geom.Point {
	return geom.Dedup(geom.UniformSquare(rng.New(seed), n))
}

// shuffledLattice returns the side x side integer lattice in a seeded
// random order.
func shuffledLattice(seed uint64, side int) []geom.Point {
	pts := make([]geom.Point, 0, side*side)
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			pts = append(pts, geom.Point{X: float64(x), Y: float64(y)})
		}
	}
	rng.ShuffleSlice(rng.New(seed), pts)
	return pts
}

// withDuplicate returns a copy of pts whose point at index at repeats the
// one at index at/2, so the closest pair is at distance 0 from iteration
// at on.
func withDuplicate[P any](pts []P, at int) []P {
	out := append([]P(nil), pts...)
	out[at] = out[at/2]
	return out
}

func TestIncrementalMatchesBruteForce(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		pts := uniqPoints(uint64(trial)+1, 2+trial*7)
		want := BruteForce(pts)
		got, _ := Incremental(pts)
		if math.Abs(got.Dist-want.Dist) > 1e-12 {
			t.Fatalf("trial %d: dist %g want %g", trial, got.Dist, want.Dist)
		}
		if got.I != want.I || got.J != want.J {
			t.Fatalf("trial %d: pair (%d,%d) want (%d,%d)", trial, got.I, got.J, want.I, want.J)
		}
	}
}

func TestParIncrementalMatchesSequential(t *testing.T) {
	var inputs [][]geom.Point
	for trial := 0; trial < 20; trial++ {
		inputs = append(inputs, uniqPoints(uint64(trial)*31+7, 2+trial*29))
	}
	// Duplicated points: the first pair, and one halfway through.
	inputs = append(inputs, withDuplicate(uniqPoints(5, 100), 1),
		withDuplicate(uniqPoints(6, 4000), 2000))
	// Shuffled integer lattices whose last special iteration finds two
	// earlier points at distance exactly 1 in one cell: the pair depends on
	// the tie-break, not on cell list order.
	inputs = append(inputs, shuffledLattice(160, 6), shuffledLattice(54, 20))
	for trial, pts := range inputs {
		seq, seqSt := Incremental(pts)
		par, parSt := ParIncremental(pts)
		if seq.I != par.I || seq.J != par.J || math.Abs(seq.Dist-par.Dist) > 1e-15 {
			t.Fatalf("trial %d: seq (%d,%d,%g) par (%d,%d,%g)",
				trial, seq.I, seq.J, seq.Dist, par.I, par.J, par.Dist)
		}
		if seqSt.Special != parSt.Special {
			t.Fatalf("trial %d: special seq=%d par=%d", trial, seqSt.Special, parSt.Special)
		}
	}
}

func TestDivideAndConquerMatchesBruteForce(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		pts := uniqPoints(uint64(trial)*13+3, 2+trial*11)
		want := BruteForce(pts)
		got := DivideAndConquer(pts)
		if math.Abs(got.Dist-want.Dist) > 1e-12 {
			t.Fatalf("trial %d: dist %g want %g", trial, got.Dist, want.Dist)
		}
	}
}

func TestClusteredWorkload(t *testing.T) {
	r := rng.New(99)
	pts := geom.Dedup(geom.GaussianCluster(r, 2000, 10, 0.01))
	seq, _ := Incremental(pts)
	par, _ := ParIncremental(pts)
	dc := DivideAndConquer(pts)
	if seq.Dist != par.Dist || math.Abs(seq.Dist-dc.Dist) > 1e-12 {
		t.Fatalf("clustered: seq=%g par=%g dc=%g", seq.Dist, par.Dist, dc.Dist)
	}
}

func TestTwoPoints(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 4}}
	res, _ := ParIncremental(pts)
	if res.Dist != 5 || res.I != 0 || res.J != 1 {
		t.Fatalf("got %+v", res)
	}
}

func TestLinearWork(t *testing.T) {
	// Theorem 5.2: O(n) expected work. Distance checks should stay a small
	// multiple of n (each insertion checks at most a constant number of
	// points: grid cells hold <= 4 points each).
	// A duplicated point ends the run at distance 0 instead of collapsing
	// the grid to one cell.
	for _, n := range []int{1000, 8000, 32000} {
		pts := uniqPoints(uint64(n), n)
		for _, in := range [][]geom.Point{pts, withDuplicate(pts, n/2)} {
			_, st := Incremental(in)
			if st.DistChecks > int64(40*n) {
				t.Fatalf("n=%d: %d distance checks is superlinear", n, st.DistChecks)
			}
		}
	}
}

func TestSpecialLogarithmic(t *testing.T) {
	n := 8192
	trials := 10
	total := 0
	for trial := 0; trial < trials; trial++ {
		pts := uniqPoints(uint64(trial)*1009+5, n)
		_, st := Incremental(pts)
		total += st.Special
	}
	avg := float64(total) / float64(trials)
	if bound := 2*math.Log(float64(n)) + 4; avg > bound {
		t.Fatalf("avg rebuilds %.2f exceeds 2 ln n + 4 = %.2f", avg, bound)
	}
}

func TestQuickAgainstBruteForce(t *testing.T) {
	// Property: for any small point set (from quick's generator), the
	// incremental result equals brute force.
	f := func(raw []struct{ X, Y int16 }) bool {
		if len(raw) < 2 {
			return true
		}
		pts := make([]geom.Point, 0, len(raw))
		for _, q := range raw {
			pts = append(pts, geom.Point{X: float64(q.X), Y: float64(q.Y)})
		}
		pts = geom.Dedup(pts)
		if len(pts) < 2 {
			return true
		}
		got, _ := Incremental(pts)
		want := BruteForce(pts)
		return math.Abs(got.Dist-want.Dist) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGridCellOccupancy(t *testing.T) {
	// Invariant: every grid cell holds at most 4 points (pairwise distances
	// within the inserted prefix are >= r, the cell side).
	pts := uniqPoints(123, 5000)
	res, _ := Incremental(pts)
	g := newSeqGrid(res.Dist, len(pts))
	var checks int64
	_ = checks
	for i := range pts {
		g.insert(pts, int32(i))
	}
	for _, cell := range g.cells {
		if len(cell) > 4 {
			t.Fatalf("cell with %d points violates the occupancy invariant", len(cell))
		}
	}
}
