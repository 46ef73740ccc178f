package checkpoint

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/rng"
)

// midState builds a triangulation partway and captures it, along with the
// uninterrupted reference mesh for the same input.
func midState(t testing.TB, seed uint64, n, steps int) (*delaunay.BuildState, *delaunay.Mesh) {
	t.Helper()
	pts := geom.Dedup(geom.UniformSquare(rng.New(seed), n))
	lv := delaunay.NewLive(pts)
	for i := 0; i < steps; i++ {
		if more, err := lv.Step(nil); err != nil || !more {
			t.Fatalf("midState step %d: more=%v err=%v", i, more, err)
		}
	}
	return lv.CaptureState(), delaunay.ParTriangulate(pts)
}

func finishFrom(t testing.TB, st *delaunay.BuildState) *delaunay.Mesh {
	t.Helper()
	lv, err := delaunay.ResumeLive(st)
	if err != nil {
		t.Fatalf("ResumeLive: %v", err)
	}
	m, err := lv.Run(nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m
}

// stateEqual compares two build states field by field, treating nil and
// empty encroacher lists as equal (the on-disk format does not preserve
// that distinction — only contents matter).
func stateEqual(t *testing.T, got, want *delaunay.BuildState) {
	t.Helper()
	if got.Round != want.Round || got.Done != want.Done || got.N != want.N {
		t.Fatalf("scalar mismatch: got (%d,%v,%d) want (%d,%v,%d)",
			got.Round, got.Done, got.N, want.Round, want.Done, want.N)
	}
	if got.Stats != want.Stats || got.Pred != want.Pred {
		t.Fatalf("stats mismatch: %+v/%+v vs %+v/%+v", got.Stats, got.Pred, want.Stats, want.Pred)
	}
	if !reflect.DeepEqual(got.Pts, want.Pts) {
		t.Fatal("points mismatch")
	}
	if len(got.Tris) != len(want.Tris) {
		t.Fatalf("%d triangles, want %d", len(got.Tris), len(want.Tris))
	}
	for i := range got.Tris {
		if got.Tris[i].V != want.Tris[i].V {
			t.Fatalf("triangle %d corners %v, want %v", i, got.Tris[i].V, want.Tris[i].V)
		}
		if len(got.Tris[i].E) != len(want.Tris[i].E) {
			t.Fatalf("triangle %d has %d encroachers, want %d", i, len(got.Tris[i].E), len(want.Tris[i].E))
		}
		for j := range got.Tris[i].E {
			if got.Tris[i].E[j] != want.Tris[i].E[j] {
				t.Fatalf("triangle %d encroacher %d: %d vs %d", i, j, got.Tris[i].E[j], want.Tris[i].E[j])
			}
		}
	}
	for name, pair := range map[string][2]interface{}{
		"depths":     {got.Depth, want.Depth},
		"final ids":  {got.Final, want.Final},
		"faces":      {got.Faces, want.Faces},
		"candidates": {got.Cand, want.Cand},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Fatalf("%s mismatch", name)
		}
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	st, want := midState(t, 11, 600, 3)
	meta := Meta{Seed: 11, Build: 4}
	img := Encode(st, meta)
	got, gotMeta, ch, err := Decode(img)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if gotMeta != meta || ch != (Chain{}) {
		t.Fatalf("binding roundtrip: meta %+v vs %+v, chain %+v", gotMeta, meta, ch)
	}
	stateEqual(t, got, st)
	if err := got.Validate(); err != nil {
		t.Fatalf("decoded state fails validation: %v", err)
	}
	// The decoded state must resume to the exact reference mesh.
	m := finishFrom(t, got)
	ref := finishFrom(t, st)
	if DigestMesh(m) != DigestMesh(ref) || DigestMesh(m) != DigestMesh(want) {
		t.Fatalf("digests diverge: decoded %08x, captured %08x, reference %08x",
			DigestMesh(m), DigestMesh(ref), DigestMesh(want))
	}
}

// TestDecodeTruncationEveryByte: every proper prefix of a valid image
// must fail with a typed error — the "crash at any byte" half of the
// durability claim, exercised directly against the format.
func TestDecodeTruncationEveryByte(t *testing.T) {
	st, _ := midState(t, 3, 200, 2)
	img := Encode(st, Meta{Seed: 3})
	for cut := 0; cut < len(img); cut++ {
		if _, _, _, err := Decode(img[:cut]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", cut, len(img))
		}
	}
}

// TestDecodeBitFlips: flipping any single byte must be caught (CRC,
// magic, or a structural check) — sampled across the image to keep the
// test fast while still covering every frame.
func TestDecodeBitFlips(t *testing.T) {
	st, _ := midState(t, 3, 200, 2)
	img := Encode(st, Meta{Seed: 3})
	for pos := 0; pos < len(img); pos += 7 {
		bad := append([]byte(nil), img...)
		bad[pos] ^= 0x40
		if _, _, _, err := Decode(bad); err == nil {
			t.Fatalf("byte flip at %d/%d decoded successfully", pos, len(img))
		}
	}
}

func TestSaveRestore(t *testing.T) {
	dir := t.TempDir()
	st, want := midState(t, 21, 800, 4)
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	path, kind, err := w.SaveAuto(st, Meta{Seed: 21, Build: 1})
	if err != nil {
		t.Fatalf("SaveAuto: %v", err)
	}
	if filepath.Base(path) != ckptName(1) || kind != KindFull {
		t.Fatalf("first save landed at %s as %v, want a root at generation 1", path, kind)
	}
	got, meta, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if meta != (Meta{Seed: 21, Build: 1}) {
		t.Fatalf("restored meta %+v", meta)
	}
	if d := DigestMesh(finishFrom(t, got)); d != DigestMesh(want) {
		t.Fatalf("restored run digest %08x, reference %08x", d, DigestMesh(want))
	}
}

// TestRestoreFallsBackPastCorruption: with the newest generation mangled
// (and the manifest pointing at it), and the one below it a CRC-valid
// root holding a NaN point, Restore must land on the oldest one —
// generation-by-generation fallback past both kinds of corruption.
func TestRestoreFallsBackPastCorruption(t *testing.T) {
	dir := t.TempDir()
	stA, _ := midState(t, 5, 400, 2)
	stB, _ := midState(t, 5, 400, 4)
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if _, _, err := w.SaveAuto(stA, Meta{Build: 1}); err != nil {
		t.Fatalf("Save A: %v", err)
	}
	// SaveAuto encodes without validating, so a poisoned state commits
	// as a well-formed, CRC-valid root; only validation can catch it.
	nan := *stB
	nan.Pts = append([]geom.Point(nil), stB.Pts...)
	nan.Pts[7].X = math.NaN()
	pathNaN, _, err := w.SaveAuto(&nan, Meta{Build: 3})
	if err != nil {
		t.Fatalf("Save NaN root: %v", err)
	}
	if _, _, _, err := Decode(mustRead(t, pathNaN)); !errors.Is(err, ErrInvalidState) {
		t.Fatalf("Decode(NaN root) = %v, want ErrInvalidState", err)
	}
	pathB, _, err := w.SaveAuto(stB, Meta{Build: 2})
	if err != nil {
		t.Fatalf("Save B: %v", err)
	}
	// Corrupt the newest file in place.
	data := mustRead(t, pathB)
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(pathB, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, meta, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore with corrupt newest: %v", err)
	}
	if meta.Build != 1 || got.Round != stA.Round {
		t.Fatalf("restored build %d round %d, want the oldest generation (build 1, round %d)",
			meta.Build, got.Round, stA.Round)
	}
	// With every generation corrupt, the error is not ErrNoCheckpoint.
	pathA := filepath.Join(dir, ckptName(1))
	if err := os.WriteFile(pathA, data[:30], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Restore(dir); err == nil || errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Restore over all-corrupt dir: %v", err)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestVersion1DirectoryRejected: a directory written by the retired
// version 1 format (the committed seed-v1-full image) does not restore —
// Restore wraps ErrBadVersion — and a scrub pass quarantines the file by
// rename, deleting nothing.
func TestVersion1DirectoryRejected(t *testing.T) {
	raw := string(mustRead(t, filepath.Join("testdata", "fuzz", "FuzzCheckpointDecode", "seed-v1-full")))
	lit, ok := strings.CutPrefix(strings.TrimSpace(raw), "go test fuzz v1\n[]byte(")
	v1, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if !ok || err != nil {
		t.Fatalf("seed-v1-full is not a corpus entry: %v", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ckptName(1)), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Restore(dir); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("Restore(v1 dir) = %v, want ErrBadVersion", err)
	}
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if res, err := w.Scrub(); err != nil || res.Quarantined != 1 || res.NewestOK {
		t.Fatalf("Scrub(v1 dir) = %+v, %v; want the one file quarantined", res, err)
	}
	if got := mustRead(t, filepath.Join(dir, ckptName(1)+badSuffix)); string(got) != v1 {
		t.Fatal("quarantine changed the v1 file's bytes")
	}
}

func TestRestoreEmpty(t *testing.T) {
	if _, _, err := Restore(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Restore(empty) = %v, want ErrNoCheckpoint", err)
	}
	if _, _, err := Restore(filepath.Join(t.TempDir(), "nope")); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Restore(missing dir) = %v, want ErrNoCheckpoint", err)
	}
}

// TestGenerationNumbering: a new writer resumes above what's on disk,
// prune keeps the newest keepGenerations, temp litter is cleaned up, and
// the manifest tracks the newest commit.
func TestGenerationNumbering(t *testing.T) {
	dir := t.TempDir()
	st, _ := midState(t, 9, 300, 2)
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := w.SaveAuto(st, Meta{Build: uint64(i)}); err != nil {
			t.Fatalf("Save %d: %v", i, err)
		}
	}
	if g, ok := readManifest(dir); !ok || g != 4 {
		t.Fatalf("manifest reads (%d, %v), want generation 4", g, ok)
	}
	ents, _ := os.ReadDir(dir)
	var names []string
	for _, e := range ents {
		if _, ok := parseGen(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	if len(names) != keepGenerations {
		t.Fatalf("%d generations on disk after prune, want %d: %v", len(names), keepGenerations, names)
	}
	// Leave a fake temp file; a restarted writer must clean it and resume
	// numbering.
	litter := filepath.Join(dir, tmpPrefix+ckptName(99))
	if err := os.WriteFile(litter, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := NewWriter(dir)
	if err != nil {
		t.Fatalf("NewWriter (restart): %v", err)
	}
	if _, err := os.Stat(litter); !os.IsNotExist(err) {
		t.Fatal("restart did not clean temp litter")
	}
	p, _, err := w2.SaveAuto(st, Meta{Build: 9})
	if err != nil {
		t.Fatalf("Save after restart: %v", err)
	}
	if filepath.Base(p) != ckptName(5) {
		t.Fatalf("restarted writer committed %s, want generation 5", filepath.Base(p))
	}
	if _, meta, err := Restore(dir); err != nil || meta.Build != 9 {
		t.Fatalf("Restore after restart: meta %+v err %v", meta, err)
	}
}

func TestDigestMeshDistinguishes(t *testing.T) {
	_, a := midState(t, 2, 300, 1)
	_, b := midState(t, 4, 300, 1)
	if DigestMesh(a) == DigestMesh(b) {
		t.Fatal("different meshes digest equal")
	}
	if DigestMesh(a) != DigestMesh(a) {
		t.Fatal("digest unstable")
	}
}
