package closestpair

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func randPointsD(seed uint64, n, d int) []PointD {
	r := rng.New(seed)
	pts := make([]PointD, n)
	for i := range pts {
		p := make(PointD, d)
		for j := range p {
			p[j] = r.Float64()
		}
		pts[i] = p
	}
	return pts
}

func TestIncrementalDMatchesBruteForce(t *testing.T) {
	for _, d := range []int{1, 2, 3, 4} {
		for trial := 0; trial < 8; trial++ {
			n := 2 + trial*40
			pts := randPointsD(uint64(d*100+trial), n, d)
			want := BruteForceD(pts)
			got, _ := IncrementalD(pts)
			if math.Abs(got.Dist-want.Dist) > 1e-12 {
				t.Fatalf("d=%d trial=%d: dist %g want %g", d, trial, got.Dist, want.Dist)
			}
			if got.I != want.I || got.J != want.J {
				t.Fatalf("d=%d trial=%d: pair (%d,%d) want (%d,%d)",
					d, trial, got.I, got.J, want.I, want.J)
			}
		}
	}
}

func TestParIncrementalDMatchesSequential(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		for trial := 0; trial < 7; trial++ {
			n := 2 + trial*150
			pts := randPointsD(uint64(d*1000+trial), n, d)
			if trial == 6 { // a duplicated point halfway through
				pts = withDuplicate(pts, n/2)
			}
			seq, seqSt := IncrementalD(pts)
			par, parSt := ParIncrementalD(pts)
			if seq != par {
				t.Fatalf("d=%d trial=%d: seq %+v par %+v", d, trial, seq, par)
			}
			if seqSt.Special != parSt.Special {
				t.Fatalf("d=%d trial=%d: special seq=%d par=%d", d, trial, seqSt.Special, parSt.Special)
			}
		}
	}
}

func TestIncrementalDMatches2D(t *testing.T) {
	// The d-dimensional implementation at d=2 must agree with the planar
	// specialization on identical inputs.
	pts2 := uniqPoints(77, 500)
	ptsD := make([]PointD, len(pts2))
	for i, p := range pts2 {
		ptsD[i] = PointD{p.X, p.Y}
	}
	want, _ := Incremental(pts2)
	got, _ := IncrementalD(ptsD)
	if math.Abs(got.Dist-want.Dist) > 1e-15 || got.I != want.I || got.J != want.J {
		t.Fatalf("2D cross-check: %+v vs %+v", got, want)
	}
}

func TestIncrementalDWorkGrowsWithDimension(t *testing.T) {
	// Work is O(c_d n) with c_d growing in d but still linear in n.
	n := 4000
	for _, d := range []int{2, 3, 4} {
		pts := randPointsD(uint64(d), n, d)
		limit := int64(n) * int64(40*(1<<d)) // generous c_d envelope
		for _, in := range [][]PointD{pts, withDuplicate(pts, n/2)} {
			_, st := IncrementalD(in)
			if st.DistChecks > limit {
				t.Fatalf("d=%d: %d checks exceed linear envelope %d", d, st.DistChecks, limit)
			}
		}
	}
}

func TestHighDimDegenerateLine(t *testing.T) {
	// Points on a line embedded in R^3.
	n := 200
	pts := make([]PointD, n)
	r := rng.New(5)
	for i := range pts {
		x := r.Float64() * 100
		pts[i] = PointD{x, 2 * x, -x}
	}
	want := BruteForceD(pts)
	got, _ := ParIncrementalD(pts)
	if math.Abs(got.Dist-want.Dist) > 1e-9 {
		t.Fatalf("line in R^3: %g want %g", got.Dist, want.Dist)
	}
}
