package delaunay

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// meshEqual fails the test unless the two meshes are identical in
// triangles and stats — the determinism contract cancellation and
// rollback must preserve.
func meshEqual(t *testing.T, tag string, got, want *Mesh) {
	t.Helper()
	if len(got.Triangles) != len(want.Triangles) {
		t.Fatalf("%s: %d triangles, want %d", tag, len(got.Triangles), len(want.Triangles))
	}
	for i := range want.Triangles {
		if got.Triangles[i].V != want.Triangles[i].V {
			t.Fatalf("%s: triangle %d = %v, want %v", tag, i, got.Triangles[i].V, want.Triangles[i].V)
		}
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats %+v, want %+v", tag, got.Stats, want.Stats)
	}
}

// drive steps the engine to completion and returns the finished mesh.
func drive(e *roundEngine) *Mesh {
	for e.step() {
	}
	return e.s.finish()
}

// requireCleanAbort steps lv with an already-canceled token and fails the
// test unless the Step ran no round, published no view, and left the
// engine clean at its last committed round.
func requireCleanAbort(t *testing.T, tag string, lv *Live) {
	t.Helper()
	var c parallel.Canceler
	c.Cancel()
	view, epoch := lv.ViewEpoch()
	round := view.Round()
	tris := view.NumTriangles()
	if _, err := lv.Step(&c); !errors.Is(err, parallel.ErrCanceled) {
		t.Fatalf("%s: canceled Step = %v, want ErrCanceled", tag, err)
	}
	if v, ep := lv.ViewEpoch(); v != view || ep != epoch {
		t.Fatalf("%s: canceled Step published epoch %d over %d", tag, ep, epoch)
	}
	if lv.e.rb.dirty {
		t.Fatalf("%s: canceled Step left the engine dirty", tag)
	}
	if lv.e.round != round || len(lv.e.s.tris) != tris {
		t.Fatalf("%s: canceled Step moved the engine: round %d→%d, tris %d→%d",
			tag, round, lv.e.round, tris, len(lv.e.s.tris))
	}
}

// TestStepCancelCleanAbortAndResume: a Step given a canceled token stops
// at the round boundary — on a clean engine, and right after a recovered
// mid-round panic, where the boundary is the lazily repaired one — and a
// nil-token resume then reaches the identical mesh and Stats.
func TestStepCancelCleanAbortAndResume(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(7), 1200))
	want := ParTriangulate(pts)

	lv := NewLive(pts)
	for i := 0; i < 3; i++ {
		if more, err := lv.Step(nil); err != nil || !more {
			t.Fatalf("warmup round %d: more=%v err=%v", i, more, err)
		}
	}
	requireCleanAbort(t, "clean engine", lv)

	fired := false
	lv.e.boundaryHook = func(st int) {
		if st == stagePostB && !fired {
			fired = true
			panic("injected phase crash")
		}
	}
	func() {
		defer func() {
			if r := recover(); r != "injected phase crash" {
				t.Fatalf("recovered %v", r)
			}
		}()
		lv.Step(nil)
		t.Fatal("Step returned past the injected panic")
	}()
	if !lv.e.rb.dirty {
		t.Fatal("engine not dirty after mid-round panic")
	}
	lv.e.boundaryHook = nil
	requireCleanAbort(t, "after recovered panic", lv)

	got, err := lv.Run(nil)
	if err != nil {
		t.Fatalf("nil-token resume: %v", err)
	}
	meshEqual(t, "resume after clean abort", got, want)
}

// TestPanicMidRoundLazyRollback is the delaunay half of the panic-safety
// tests: a panic escaping a round leaves the engine dirty, and the next
// use repairs it — scratch is reset, not poisoned — yielding the identical
// mesh. The boundary stages crash round 2 once; stagePhaseB crashes the
// first, a middle and the last fire of Phase B's loop in rounds 2, 10, 20
// and 30, with the face map partially installed (the crashing fire has
// repointed its ripped face but attached no tent face), which exercises
// rollback's per-fire conditional repair.
func TestPanicMidRoundLazyRollback(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(13), 1500))
	want := ParTriangulate(pts)
	// crash panics at the at(m)-th call of stage in the given round, where
	// m is the round's fire count; at the round top e.round is still the
	// previous round's number.
	crash := func(tag string, stage int, round int32, at func(m int) int) {
		e := newRoundEngine(pts)
		var calls atomic.Int64 // the stagePhaseB hook runs on pool workers
		e.boundaryHook = func(st int) {
			if st == stage && e.round == round && calls.Add(1) == int64(at(len(e.ar.fires))) {
				panic("injected phase crash")
			}
		}
		func() {
			defer func() {
				if r := recover(); r != "injected phase crash" {
					t.Fatalf("%s: recovered %v", tag, r)
				}
			}()
			for {
				if !e.step() {
					t.Fatalf("%s: run ended before the hook fired", tag)
				}
			}
		}()
		if stage != stageRoundTop && !e.rb.dirty {
			t.Fatalf("%s: engine not dirty after mid-round panic", tag)
		}
		e.boundaryHook = nil
		got := drive(e) // first step repairs lazily, then the run completes
		meshEqual(t, tag+": resume after recovered panic", got, want)
	}
	first := func(int) int { return 1 }
	for _, stage := range []int{stageRoundTop, stagePostA, stagePostB} {
		crash(fmt.Sprintf("stage %d", stage), stage, 2, first)
	}
	for _, r := range []int32{2, 10, 20, 30} {
		crash(fmt.Sprintf("round %d, first fire", r), stagePhaseB, r, first)
		crash(fmt.Sprintf("round %d, middle fire", r), stagePhaseB, r, func(m int) int { return (m + 1) / 2 })
		crash(fmt.Sprintf("round %d, last fire", r), stagePhaseB, r, func(m int) int { return m })
	}
}

// TestCancelRaceResume races an asynchronous cancel against a full Live
// run: whichever round the token lands in completes and publishes, the
// next Step stops with the engine clean and the last view current, and
// resuming with a nil token must reach the identical mesh.
func TestCancelRaceResume(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(17), 4000))
	want := ParTriangulate(pts)
	for trial := 0; trial < 8; trial++ {
		lv := NewLive(pts)
		var c parallel.Canceler
		go func(d time.Duration) {
			time.Sleep(d)
			c.Cancel()
		}(time.Duration(trial*150) * time.Microsecond)
		for {
			more, err := lv.Step(&c)
			if err != nil {
				if !errors.Is(err, parallel.ErrCanceled) {
					t.Fatalf("trial %d: Step = %v", trial, err)
				}
				if lv.e.rb.dirty || lv.View().Round() != lv.e.round {
					t.Fatalf("trial %d: canceled Step left the engine dirty or the view stale", trial)
				}
				break
			}
			if !more {
				break
			}
		}
		got, err := lv.Run(nil)
		if err != nil {
			t.Fatalf("trial %d: nil-token resume: %v", trial, err)
		}
		meshEqual(t, "resume after racing cancel", got, want)
	}
}
