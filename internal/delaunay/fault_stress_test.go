//go:build ridtfault

package delaunay

import (
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/rng"
)

// Round-engine fault stress (ridtfault build): injected panics at the
// phase boundaries kill rounds at seeded points; the engine's lazy
// rollback must repair every death, and the survivors' retries must
// reproduce the exact deterministic mesh.

// stepFaulted runs one step, translating an injected death into a
// retry signal. Any non-injected panic is a real bug and re-panics.
func stepFaulted(e *roundEngine) (more, died bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(fault.Injected); !ok {
				panic(r)
			}
			more, died = true, true
		}
	}()
	return e.step(), false
}

func runFaultedTriangulation(t *testing.T, pts []geom.Point, cfg fault.Config) (mesh *Mesh, deaths int) {
	t.Helper()
	if err := fault.Enable(cfg); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	e := newRoundEngine(pts)
	for {
		more, died := stepFaulted(e)
		if died {
			deaths++
			if deaths > 10000 {
				t.Fatal("fault schedule never lets the run finish")
			}
			continue
		}
		if !more {
			return e.s.finish(), deaths
		}
	}
}

// TestRoundEngineSurvivesPhasePanics injects deaths at the Delaunay phase
// boundaries only: every recovered death rolls the round back and the
// retry must re-derive the identical round (rollback.go restores every
// touched face's incident pair, all the emission dedup reads).
func TestRoundEngineSurvivesPhasePanics(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(31), 1500))
	want := ParTriangulate(pts)
	for _, seed := range []uint64{2, 19, 443} {
		got, deaths := runFaultedTriangulation(t, pts, fault.Config{
			Seed:      seed,
			PanicRate: 0.05,
			DelayRate: 0.1,
			MaxPanics: -1,
			SiteMask:  fault.MaskOf(fault.DelaunayPhase),
		})
		if deaths == 0 {
			t.Fatalf("seed %d: no deaths injected — raise the rate", seed)
		}
		meshEqual(t, "after phase deaths", got, want)
		if err := CheckDelaunay(got); err != nil {
			t.Fatalf("seed %d: mesh invalid after %d deaths: %v", seed, deaths, err)
		}
	}
}

// TestRoundEngineSurvivesAllSites opens every site at once — scheduler
// delays and forced steals, phase deaths — the full storm.
func TestRoundEngineSurvivesAllSites(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	if prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	pts := geom.Dedup(geom.UniformSquare(rng.New(37), 2000))
	want := ParTriangulate(pts)
	got, deaths := runFaultedTriangulation(t, pts, fault.Config{
		Seed:      7,
		PanicRate: 0.01,
		DelayRate: 0.1,
		SkipRate:  0.2,
		MaxPanics: -1,
	})
	t.Logf("survived %d injected deaths", deaths)
	meshEqual(t, "after full-storm faults", got, want)
	if err := CheckDelaunay(got); err != nil {
		t.Fatalf("mesh invalid after storm: %v", err)
	}
	if err := CheckConsistency(got); err != nil {
		t.Fatalf("mesh inconsistent after storm: %v", err)
	}
}

// TestFaultScheduleReplays pins the replay property at the engine level:
// two runs under the same seed inject the same per-(site, hit) schedule,
// so a single-threaded driver sees the identical death sequence.
func TestFaultScheduleReplays(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(1) // single-threaded: hit order is deterministic
	defer runtime.GOMAXPROCS(prev)
	pts := geom.Dedup(geom.UniformSquare(rng.New(41), 800))
	cfg := fault.Config{
		Seed:      97,
		PanicRate: 0.04,
		MaxPanics: -1,
		SiteMask:  fault.MaskOf(fault.DelaunayPhase),
	}
	m1, d1 := runFaultedTriangulation(t, pts, cfg)
	m2, d2 := runFaultedTriangulation(t, pts, cfg)
	if d1 != d2 {
		t.Fatalf("death counts diverge across replays: %d vs %d", d1, d2)
	}
	meshEqual(t, "replay", m2, m1)
}
