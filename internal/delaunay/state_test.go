package delaunay

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// liveToEnd steps a Live to completion and returns the final mesh.
func liveToEnd(t *testing.T, lv *Live) *Mesh {
	t.Helper()
	for {
		more, err := lv.Step(nil)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if !more {
			return lv.Finish()
		}
	}
}

// TestCaptureResumeEveryBoundary captures the build state at EVERY
// committed round boundary and proves each one is a sufficient restore
// point: the resumed run must produce the byte-identical mesh and stats
// of the uninterrupted reference — the determinism contract that makes a
// checkpoint a prefix of the one true run rather than a fork. The
// restored view must also answer Locate exactly as the uninterrupted
// run's view at the same round did: ResumeLive rebuilds the same index.
// Input points are among the queries: several final triangles contain
// each, so the answer there pins the index's traversal order too.
func TestCaptureResumeEveryBoundary(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(61), 900))
	want := ParTriangulate(pts)
	qs := viewQueries(9, 100)
	for i := 0; i < len(pts); i += 9 {
		qs = append(qs, pts[i])
	}

	lv := NewLive(pts)
	states := []*BuildState{lv.CaptureState()} // round 0: bare bounding triangle
	answers := [][]locAns{locateAll(lv.View(), qs)}
	for {
		more, err := lv.Step(nil)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		states = append(states, lv.CaptureState())
		answers = append(answers, locateAll(lv.View(), qs))
		if !more {
			break
		}
	}
	meshEqual(t, "uninterrupted live run", lv.Finish(), want)

	for i, st := range states {
		re, err := ResumeLive(st)
		if err != nil {
			t.Fatalf("ResumeLive(round %d): %v", st.Round, err)
		}
		v := re.View()
		if v.Round() != st.Round || v.Done() != st.Done {
			t.Fatalf("restored view at round %d (done %v), want %d (done %v)", v.Round(), v.Done(), st.Round, st.Done)
		}
		for k, a := range locateAll(v, qs) {
			if a != answers[i][k] {
				t.Fatalf("round %d: restored Locate(%v) = %+v, uninterrupted run %+v", st.Round, qs[k], a, answers[i][k])
			}
		}
		meshEqual(t, "resumed from boundary", liveToEnd(t, re), want)
	}
}

// TestCaptureResumeEpochContinuity: the restored publication cell resumes
// epoch numbering from the checkpointed round (round+1 is an upper bound
// on any epoch the pre-crash cell reached), so reader Await tokens stay
// monotone across a restore.
func TestCaptureResumeEpochContinuity(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(8), 500))
	lv := NewLive(pts)
	for i := 0; i < 4; i++ {
		if more, err := lv.Step(nil); err != nil || !more {
			t.Fatalf("warmup step %d: more=%v err=%v", i, more, err)
		}
	}
	_, preEpoch := lv.ViewEpoch()
	st := lv.CaptureState()

	re, err := ResumeLive(st)
	if err != nil {
		t.Fatalf("ResumeLive: %v", err)
	}
	_, ep := re.ViewEpoch()
	if ep < preEpoch {
		t.Fatalf("restored epoch %d below pre-crash epoch %d", ep, preEpoch)
	}
	if ep != uint64(st.Round)+1 {
		t.Fatalf("restored epoch %d, want round+1 = %d", ep, st.Round+1)
	}
	// The restored face map holds exactly the captured faces.
	if n := re.Faces().Len(); n != len(st.Faces) {
		t.Fatalf("restored face map holds %d faces, want %d", n, len(st.Faces))
	}
	// Stepping after restore publishes strictly increasing epochs.
	if _, err := re.Step(nil); err != nil {
		t.Fatalf("Step after restore: %v", err)
	}
	if _, ep2 := re.ViewEpoch(); ep2 != ep+1 {
		t.Fatalf("epoch after restored step = %d, want %d", ep2, ep+1)
	}
}

// TestCaptureSharesCommittedStorage: captured states stay valid (and
// identical) while the build keeps running — the property that lets a
// background serializer read them without stalling the publisher.
func TestCaptureSharesCommittedStorage(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(19), 700))
	lv := NewLive(pts)
	for i := 0; i < 3; i++ {
		if _, err := lv.Step(nil); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	st := lv.CaptureState()
	nt, nf := len(st.Tris), len(st.Final)
	sumE := 0
	for _, tri := range st.Tris {
		for _, w := range tri.E {
			sumE += int(w)
		}
	}
	liveToEnd(t, lv) // build right past the capture
	if len(st.Tris) != nt || len(st.Final) != nf {
		t.Fatalf("capture lengths moved under the live build: tris %d->%d final %d->%d",
			nt, len(st.Tris), nf, len(st.Final))
	}
	sumE2 := 0
	for _, tri := range st.Tris {
		for _, w := range tri.E {
			sumE2 += int(w)
		}
	}
	if sumE2 != sumE {
		t.Fatal("captured encroacher contents changed while the build continued")
	}
	re, err := ResumeLive(st)
	if err != nil {
		t.Fatalf("ResumeLive after build finished: %v", err)
	}
	meshEqual(t, "resume from mid-build capture of a finished engine", liveToEnd(t, re), ParTriangulate(pts))
}

// TestResumeRejectsCorruptState: every index class Validate guards, a
// non-finite point, and an increment in place of a complete state must
// each make ResumeLive return an error, never a panic downstream.
func TestResumeRejectsCorruptState(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(5), 300))
	lv := NewLive(pts)
	var base *BuildState
	for {
		if more, err := lv.Step(nil); err != nil || !more {
			t.Fatalf("build ended before two finals appeared: more=%v err=%v", more, err)
		}
		if base = lv.CaptureState(); len(base.Final) >= 2 {
			break
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("genuine capture failed validation: %v", err)
	}

	// own deep-copies the parts each corruption mutates.
	own := func() *BuildState {
		st := *base
		st.Tris = append([]Tri(nil), base.Tris...)
		st.Depth = append([]int32(nil), base.Depth...)
		st.Final = append([]int32(nil), base.Final...)
		st.Faces = append([]FaceRec(nil), base.Faces...)
		st.Cand = append([]uint64(nil), base.Cand...)
		return &st
	}
	for name, corrupt := range map[string]func(*BuildState){
		"negative round":   func(st *BuildState) { st.Round = -1 },
		"points truncated": func(st *BuildState) { st.Pts = st.Pts[:len(st.Pts)-1] },
		"no triangles":     func(st *BuildState) { st.Tris, st.Depth = nil, nil },
		"depth mismatch":   func(st *BuildState) { st.Depth = st.Depth[:len(st.Depth)-1] },
		"corner out of range": func(st *BuildState) {
			st.Tris[0].V[1] = int32(st.N + 3)
		},
		"encroacher out of range": func(st *BuildState) {
			st.Tris[len(st.Tris)-1].E = []int32{int32(st.N)}
		},
		"final descending": func(st *BuildState) {
			st.Final[0], st.Final[1] = st.Final[1], st.Final[0]
		},
		"final not final": func(st *BuildState) {
			for i, tri := range st.Tris {
				if len(tri.E) > 0 {
					st.Final = append([]int32(nil), int32(i))
					return
				}
			}
			t.Fatal("no non-final triangle in a mid-build capture")
		},
		"face triangle out of range": func(st *BuildState) {
			st.Faces[0].W0 = uint64(uint32(int32(len(st.Tris)))) << 32
		},
		"face endpoint out of range": func(st *BuildState) {
			st.Faces[0].Key = uint64(uint32(st.N+5))<<32 | uint64(uint32(st.N+6))
		},
		"candidate endpoint out of range": func(st *BuildState) {
			st.Cand = append(st.Cand, uint64(uint32(st.N+7))<<32|uint64(uint32(st.N+7)))
		},
		"nan coordinate": func(st *BuildState) {
			st.Pts = append([]geom.Point(nil), st.Pts...)
			st.Pts[1].X = math.NaN()
		},
		"+inf coordinate": func(st *BuildState) {
			st.Pts = append([]geom.Point(nil), st.Pts...)
			st.Pts[0].Y = math.Inf(1)
		},
		"-inf coordinate": func(st *BuildState) {
			st.Pts = append([]geom.Point(nil), st.Pts...)
			st.Pts[len(st.Pts)-1].X = math.Inf(-1)
		},
		"increment": func(st *BuildState) {
			// A structurally valid increment is still not a restart point.
			d, err := st.DeltaSince(Watermark{Tris: 1})
			if err != nil {
				t.Fatalf("DeltaSince: %v", err)
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("genuine increment failed validation: %v", err)
			}
			*st = *d
		},
	} {
		t.Run(name, func(t *testing.T) {
			st := own()
			corrupt(st)
			if _, err := ResumeLive(st); err == nil {
				t.Error("ResumeLive accepted a corrupt state")
			}
		})
	}
}

// TestDeltaApplyEveryBoundary: for every pair of consecutive committed
// boundaries, the delta captured against the earlier boundary's watermark,
// applied to the earlier state, must reconstruct the later state exactly —
// and the reconstruction must resume to the byte-identical reference mesh.
// This is the delaunay-level half of the incremental-checkpoint claim; the
// checkpoint package proves the on-disk half against the same invariant.
func TestDeltaApplyEveryBoundary(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(71), 700))
	want := ParTriangulate(pts)

	lv := NewLive(pts)
	prev := lv.CaptureState()
	for {
		more, err := lv.Step(nil)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		cur := lv.CaptureState()
		d, err := cur.DeltaSince(prev.Watermark())
		if err != nil {
			t.Fatalf("DeltaSince(round %d): %v", prev.Round, err)
		}
		if d.Base != prev.Watermark() {
			t.Fatalf("delta base %+v, want %+v", d.Base, prev.Watermark())
		}
		got, err := ApplyDelta(prev, d)
		if err != nil {
			t.Fatalf("ApplyDelta(round %d -> %d): %v", prev.Round, cur.Round, err)
		}
		if !reflect.DeepEqual(got, cur) {
			t.Fatalf("applied delta at round %d does not reconstruct the captured state", cur.Round)
		}
		re, err := ResumeLive(got)
		if err != nil {
			t.Fatalf("ResumeLive(applied, round %d): %v", cur.Round, err)
		}
		meshEqual(t, "resumed from applied delta", liveToEnd(t, re), want)
		prev = cur
		if !more {
			break
		}
	}
}

// TestDeltaSpansMultipleRounds: a watermark is a valid delta base for ANY
// later boundary (append-only storage), not just the next one.
func TestDeltaSpansMultipleRounds(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(73), 600))
	lv := NewLive(pts)
	base := lv.CaptureState()
	for i := 0; i < 4; i++ {
		if more, err := lv.Step(nil); err != nil || !more {
			t.Fatalf("step %d: more=%v err=%v", i, more, err)
		}
	}
	cur := lv.CaptureState()
	d, err := cur.DeltaSince(base.Watermark())
	if err != nil {
		t.Fatalf("DeltaSince over 4 rounds: %v", err)
	}
	got, err := ApplyDelta(base, d)
	if err != nil {
		t.Fatalf("ApplyDelta over 4 rounds: %v", err)
	}
	if !reflect.DeepEqual(got, cur) {
		t.Fatal("multi-round delta does not reconstruct the captured state")
	}
}

// TestDeltaRejectsMismatch: the watermark and cross-field checks that keep
// a delta from being joined to the wrong base.
func TestDeltaRejectsMismatch(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(79), 500))
	lv := NewLive(pts)
	base := lv.CaptureState()
	if more, err := lv.Step(nil); err != nil || !more {
		t.Fatalf("step: more=%v err=%v", more, err)
	}
	cur := lv.CaptureState()
	d, err := cur.DeltaSince(base.Watermark())
	if err != nil {
		t.Fatalf("DeltaSince: %v", err)
	}

	if _, err := cur.DeltaSince(Watermark{Round: cur.Round + 1, Tris: len(cur.Tris), Final: len(cur.Final)}); err == nil {
		t.Error("DeltaSince accepted a watermark ahead of the state")
	}
	if _, err := cur.DeltaSince(Watermark{Round: 0, Tris: 0, Final: 0}); err == nil {
		t.Error("DeltaSince accepted a zero-triangle watermark (no valid base has an empty log)")
	}
	if _, err := ApplyDelta(cur, d); err == nil {
		t.Error("ApplyDelta accepted a base whose watermark does not match")
	}
	other := *base
	other.N++
	if _, err := ApplyDelta(&other, d); err == nil {
		t.Error("ApplyDelta accepted a base with a different point count")
	}
	bad := *d
	bad.Final = append([]int32(nil), int32(0)) // names a prefix triangle
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted a suffix final id below the base watermark")
	}
}
