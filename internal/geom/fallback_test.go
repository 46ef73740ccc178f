package geom

import (
	"testing"

	"repro/internal/rng"
)

// TestExactFallbackRates pins the stage-A filter: benign random inputs
// must almost never get past it, while exactly cocircular inputs must
// always reach the exact stages (and get the right answer there).
func TestExactFallbackRates(t *testing.T) {
	r := rng.New(1)
	var st PredicateStats
	pts := UniformSquare(r, 4000)
	for i := 0; i+3 < len(pts); i += 4 {
		InCircleStats(pts[i], pts[i+1], pts[i+2], pts[i+3], &st)
	}
	if st.InCircleCalls == 0 {
		t.Fatal("no calls recorded")
	}
	if rate := float64(st.InCircleExact) / float64(st.InCircleCalls); rate > 0.01 {
		t.Fatalf("benign exact-fallback rate %.4f too high", rate)
	}

	// Exactly cocircular quadruples: axis points of a circle centered at a
	// float-exact center with float-exact radius.
	var co PredicateStats
	for i := 0; i < 100; i++ {
		cx, cy := float64(i), float64(2*i)
		rad := float64(i + 1)
		a := Point{cx + rad, cy}
		b := Point{cx, cy + rad}
		c := Point{cx - rad, cy}
		d := Point{cx, cy - rad}
		if got := InCircleStats(a, b, c, d, &co); got != 0 {
			t.Fatalf("cocircular quadruple %d reported %d", i, got)
		}
	}
	if co.InCircleExact != co.InCircleCalls {
		t.Fatalf("cocircular inputs must always take the exact path: %+v", co)
	}
}

// TestOrientFallbackOnTinyPerturbations verifies the fast-path error bound
// is conservative: over many near-degenerate triples the filtered result
// always agrees with exact evaluation (Orient2DStats falls back whenever
// uncertain, so a disagreement would mean the bound is wrong).
func TestOrientFallbackOnTinyPerturbations(t *testing.T) {
	r := rng.New(2)
	var st PredicateStats
	for i := 0; i < 5000; i++ {
		a := Point{r.Float64(), r.Float64()}
		b := Point{a.X + (r.Float64()-0.5)*1e-3, a.Y + (r.Float64()-0.5)*1e-3}
		// c on segment ab plus a perturbation at the edge of precision.
		tt := r.Float64()
		c := Point{
			a.X + tt*(b.X-a.X) + (r.Float64()-0.5)*1e-18,
			a.Y + tt*(b.Y-a.Y) + (r.Float64()-0.5)*1e-18,
		}
		got := Orient2DStats(a, b, c, &st)
		want := orient2DExact(a, b, c)
		if got != want {
			t.Fatalf("filtered orient %d != exact %d at %v %v %v", got, want, a, b, c)
		}
	}
	if st.Orient2DExact == 0 {
		t.Fatal("expected some exact fallbacks on near-degenerate inputs")
	}
}
