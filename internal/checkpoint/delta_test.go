package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/rng"
)

// liveRun is a build stepped under test control, for capturing states at
// chosen boundaries of ONE run (midState builds a fresh run per call,
// which can never yield a base and a later state of the same build).
type liveRun struct {
	lv  *delaunay.Live
	ref *delaunay.Mesh
}

func newLiveRun(t testing.TB, seed uint64, n int) *liveRun {
	t.Helper()
	pts := geom.Dedup(geom.UniformSquare(rng.New(seed), n))
	return &liveRun{lv: delaunay.NewLive(pts), ref: delaunay.ParTriangulate(pts)}
}

// step advances k committed rounds and reports whether the build can
// still go further.
func (r *liveRun) step(t testing.TB, k int) bool {
	t.Helper()
	for i := 0; i < k; i++ {
		more, err := r.lv.Step(nil)
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		if !more {
			return false
		}
	}
	return true
}

// saveRoot commits st as a root whatever the writer's chain tip: the path
// SaveAuto takes at the chain cap, and Scrub's promotion takes always.
func saveRoot(t testing.TB, w *Writer, st *delaunay.BuildState, meta Meta) string {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	path, err := w.save(st, meta, nil)
	if err != nil {
		t.Fatalf("root save: %v", err)
	}
	return path
}

// saveLink commits st through SaveAuto and requires it to land as a link.
func saveLink(t testing.TB, w *Writer, st *delaunay.BuildState, meta Meta) string {
	t.Helper()
	path, kind, err := w.SaveAuto(st, meta)
	if err != nil || kind != KindDelta {
		t.Fatalf("SaveAuto: kind %v err %v, want a link", kind, err)
	}
	return path
}

// TestDeltaEncodeDecodeRoundtrip: a link image roundtrips through
// EncodeDelta/Decode losslessly and canonically — field-exact state,
// binding and watermark, byte-exact re-encode.
func TestDeltaEncodeDecodeRoundtrip(t *testing.T) {
	run := newLiveRun(t, 41, 600)
	run.step(t, 2)
	base := run.lv.CaptureState()
	run.step(t, 2)
	d, err := run.lv.CaptureState().DeltaSince(base.Watermark())
	if err != nil {
		t.Fatalf("DeltaSince: %v", err)
	}
	meta := Meta{Seed: 41, Build: 7}
	ch := Chain{BaseGen: 3, CRCTris: crcTris(0, base.Tris), CRCFinal: crcFinal(0, base.Final)}
	img := EncodeDelta(d, meta, ch)

	got, gotMeta, gotCh, err := Decode(img)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if gotMeta != meta || gotCh != ch {
		t.Fatalf("binding roundtrip: meta %+v chain %+v", gotMeta, gotCh)
	}
	if got.Base != d.Base || got.Pts != nil {
		t.Fatalf("link roundtrip: base %+v with %d points, want %+v with none", got.Base, len(got.Pts), d.Base)
	}
	stateEqual(t, got, d)
	if reenc := EncodeDelta(got, gotMeta, gotCh); !bytes.Equal(reenc, img) {
		t.Fatal("link re-encode is not byte-identical")
	}
}

// TestDeltaChainRestoreEveryBoundary is the property test of the chain
// claim: committing via SaveAuto (a root, then links chained on it) at
// EVERY committed boundary, the directory must restore — through the
// root⊕links chain — to a state byte-identical (encoding and all) to the
// complete capture at that boundary, and the restored state must resume
// to the byte-identical reference mesh.
func TestDeltaChainRestoreEveryBoundary(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	run := newLiveRun(t, 43, 900)
	meta := Meta{Seed: 43, Build: 2}
	refDigest := DigestMesh(run.ref)

	deltas := 0
	for more := true; more; {
		more = run.step(t, 1)
		st := run.lv.CaptureState()
		_, kind, err := w.SaveAuto(st, meta)
		if err != nil {
			t.Fatalf("SaveAuto at round %d: %v", st.Round, err)
		}
		if kind == KindDelta {
			deltas++
		}
		got, gotMeta, err := Restore(dir)
		if err != nil {
			t.Fatalf("Restore at round %d: %v", st.Round, err)
		}
		if gotMeta != meta {
			t.Fatalf("restored meta %+v at round %d", gotMeta, st.Round)
		}
		// Byte-identity: the chain-restored state and the direct capture
		// must be indistinguishable even to the serializer.
		if !bytes.Equal(Encode(got, gotMeta), Encode(st, meta)) {
			t.Fatalf("round %d: chain restore differs from the full capture", st.Round)
		}
	}
	if deltas == 0 {
		t.Fatal("SaveAuto never produced a link; the chain path was not exercised")
	}
	got, _, err := Restore(dir)
	if err != nil {
		t.Fatalf("final Restore: %v", err)
	}
	if d := DigestMesh(finishFrom(t, got)); d != refDigest {
		t.Fatalf("resumed digest %08x, reference %08x", d, refDigest)
	}
}

// TestSaveAutoChainPolicy: the root/link cadence follows DefaultMaxChain
// (a root, then DefaultMaxChain links, then a root again), and a state
// that cannot chain on the tip — another run's Meta, or a state behind
// the tip — falls back to a root.
func TestSaveAutoChainPolicy(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	run := newLiveRun(t, 47, 3000)
	meta := Meta{Seed: 47}
	early := run.lv.CaptureState()

	var kinds, want []Kind
	for i := 0; i < 2*(DefaultMaxChain+1)+1; i++ {
		run.step(t, 1)
		_, kind, err := w.SaveAuto(run.lv.CaptureState(), meta)
		if err != nil {
			t.Fatalf("SaveAuto %d: %v", i, err)
		}
		kinds = append(kinds, kind)
		if i%(DefaultMaxChain+1) == 0 {
			want = append(want, KindFull)
		} else {
			want = append(want, KindDelta)
		}
	}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("save kinds %v, want %v", kinds, want)
	}
	// A link first each time, so the fallback is forced by the state,
	// not by the cap.
	saveLink(t, w, run.lv.CaptureState(), meta)
	if _, kind, err := w.SaveAuto(run.lv.CaptureState(), Meta{Seed: 48}); err != nil || kind != KindFull {
		t.Fatalf("foreign meta: SaveAuto kind %v err %v, want a root", kind, err)
	}
	saveLink(t, w, run.lv.CaptureState(), Meta{Seed: 48})
	if _, kind, err := w.SaveAuto(early, Meta{Seed: 48}); err != nil || kind != KindFull {
		t.Fatalf("state behind the tip: SaveAuto kind %v err %v, want a root", kind, err)
	}
	if got, gotMeta, err := Restore(dir); err != nil || gotMeta.Seed != 48 || got.Round != early.Round {
		t.Fatalf("Restore after the fallback root: meta %+v err %v", gotMeta, err)
	}
}

// TestPruneKeepsChainBases is the regression test for chain-aware
// pruning: with a long chain, the naive newest-keepGenerations policy
// would delete the root the surviving links depend on, silently
// destroying every restore point. The chain-aware prune must keep the
// root alive as long as a retained link needs it — and still collect it
// once later roots retire the chain.
func TestPruneKeepsChainBases(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	run := newLiveRun(t, 53, 800)
	meta := Meta{Seed: 53}
	run.step(t, 1)
	saveRoot(t, w, run.lv.CaptureState(), meta) // gen 1: the root
	// 2*keepGenerations links: far more than the naive window.
	for i := 0; i < 2*keepGenerations; i++ {
		run.step(t, 1)
		saveLink(t, w, run.lv.CaptureState(), meta)
	}
	if _, err := os.Stat(filepath.Join(dir, ckptName(1))); err != nil {
		t.Fatalf("prune deleted the base generation a live delta chain depends on: %v", err)
	}
	st, _, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore through the retained chain: %v", err)
	}
	if d := DigestMesh(finishFrom(t, st)); d != DigestMesh(run.ref) {
		t.Fatalf("chain restore digest %08x, reference %08x", d, DigestMesh(run.ref))
	}
	// Retire the chain with roots; the old root must now be collectable
	// — chain-aware pruning is not a leak.
	for i := 0; i < keepGenerations; i++ {
		run.step(t, 1)
		saveRoot(t, w, run.lv.CaptureState(), meta)
	}
	if _, err := os.Stat(filepath.Join(dir, ckptName(1))); !os.IsNotExist(err) {
		t.Fatal("retired base generation was never pruned (chain-aware prune leaks)")
	}
}

// TestRestoreFallsBackPastBrokenDelta: a corrupt link must not orphan
// its base — Restore skips the broken tip and lands on the newest link
// that still resolves.
func TestRestoreFallsBackPastBrokenDelta(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	run := newLiveRun(t, 59, 700)
	meta := Meta{Seed: 59}
	run.step(t, 1)
	saveRoot(t, w, run.lv.CaptureState(), meta)
	run.step(t, 1)
	mid := run.lv.CaptureState()
	saveLink(t, w, mid, meta) // gen 2
	run.step(t, 1)
	tipPath := saveLink(t, w, run.lv.CaptureState(), meta) // gen 3
	// Corrupt the newest link; the manifest still points at it.
	data := mustRead(t, tipPath)
	data[len(data)-10] ^= 0xff
	if err := os.WriteFile(tipPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore past broken delta: %v", err)
	}
	if got.Round != mid.Round || len(got.Tris) != len(mid.Tris) {
		t.Fatalf("restored round %d (%d tris), want the intact link below (round %d, %d tris)",
			got.Round, len(got.Tris), mid.Round, len(mid.Tris))
	}

	// A link whose BASE is gone must also fall back — here to nothing,
	// so Restore reports the corruption rather than fabricating a state.
	if err := os.Remove(filepath.Join(dir, ckptName(1))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Restore(dir); err == nil || !errors.Is(err, ErrDeltaChain) {
		t.Fatalf("Restore with missing base = %v, want ErrDeltaChain", err)
	}
}

// TestRestoreRejectsForgedChain: a link rebound to a base of the right
// watermark but different content must fail the prefix-digest check.
func TestRestoreRejectsForgedChain(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	run := newLiveRun(t, 61, 700)
	meta := Meta{Seed: 61}
	run.step(t, 1)
	base := run.lv.CaptureState()
	saveRoot(t, w, base, meta)
	run.step(t, 1)
	d, err := run.lv.CaptureState().DeltaSince(base.Watermark())
	if err != nil {
		t.Fatalf("DeltaSince: %v", err)
	}
	// Encode the link with a WRONG content digest for its base: the file
	// is CRC-valid and structurally fine, but the chain must not join.
	forged := EncodeDelta(d, meta, Chain{
		BaseGen: 1, CRCTris: crcTris(0, base.Tris) ^ 1, CRCFinal: crcFinal(0, base.Final),
	})
	if err := os.WriteFile(filepath.Join(dir, ckptName(2)), forged, 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got.Round != base.Round {
		t.Fatalf("restore used a forged chain: landed at round %d, want the base's %d", got.Round, base.Round)
	}
}
