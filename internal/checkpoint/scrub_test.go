package checkpoint

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/delaunay"
	"repro/internal/geom"
)

// chainDir commits a root and two links of one run into a fresh
// directory, returning the writer, the run and its metadata.
func chainDir(t *testing.T, dir string) (*Writer, *liveRun, Meta) {
	t.Helper()
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	run := newLiveRun(t, 67, 700)
	meta := Meta{Seed: 67, Build: 1}
	run.step(t, 1)
	if _, kind, err := w.SaveAuto(run.lv.CaptureState(), meta); err != nil || kind != KindFull {
		t.Fatalf("SaveAuto: kind %v err %v, want a root", kind, err)
	}
	for i := 0; i < 2; i++ {
		run.step(t, 1)
		saveLink(t, w, run.lv.CaptureState(), meta)
	}
	return w, run, meta
}

func badFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), badSuffix) {
			bad = append(bad, e.Name())
		}
	}
	return bad
}

// TestScrubCleanPass: a healthy directory scrubs clean — every
// generation verified, nothing quarantined, nothing repaired, and the
// directory is untouched (same files, same restore).
func TestScrubCleanPass(t *testing.T) {
	dir := t.TempDir()
	w, run, _ := chainDir(t, dir)
	before, _, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore before scrub: %v", err)
	}
	res, err := w.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if res.Verified != 3 || res.Quarantined != 0 || res.Repaired != 0 || res.Skipped != 0 {
		t.Fatalf("clean pass result %+v, want 3 verified and nothing else", res)
	}
	if !res.NewestOK || res.Newest != 3 {
		t.Fatalf("clean pass newest %016x ok=%v, want generation 3", res.Newest, res.NewestOK)
	}
	if got := badFiles(t, dir); len(got) != 0 {
		t.Fatalf("clean pass quarantined %v", got)
	}
	after, _, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore after scrub: %v", err)
	}
	if after.Round != before.Round || DigestMesh(finishFrom(t, after)) != DigestMesh(run.ref) {
		t.Fatal("clean scrub changed what restores")
	}
}

// TestScrubQuarantinesAndRepairs: with the chain's middle link corrupted,
// one pass must (a) quarantine the corrupt file by rename — never delete;
// (b) quarantine the now-orphaned link above it; (c) promote the
// surviving root to a fresh root generation so the directory heals; and
// (d) leave the directory restoring to that root's state.
func TestScrubQuarantinesAndRepairs(t *testing.T) {
	dir := t.TempDir()
	w, run, meta := chainDir(t, dir)

	// Corrupt gen 2 (the middle link).
	p2 := filepath.Join(dir, ckptName(2))
	data, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(p2, data, 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := w.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if res.Quarantined != 2 {
		t.Fatalf("scrub quarantined %d files, want 2 (the corrupt link and its orphan): %+v", res.Quarantined, res)
	}
	if res.Repaired != 1 {
		t.Fatalf("scrub repaired %d, want 1 promotion of the surviving base: %+v", res.Repaired, res)
	}
	bad := badFiles(t, dir)
	if len(bad) != 2 {
		t.Fatalf("quarantine files %v, want exactly 2", bad)
	}
	for _, name := range []string{ckptName(2) + badSuffix, ckptName(3) + badSuffix} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("expected quarantine file %s: %v", name, err)
		}
	}
	// The repair is a fresh root, newest on disk.
	hdr, ch, err := readHeader(filepath.Join(dir, ckptName(res.Newest)))
	if err != nil || hdr.Base != (delaunay.Watermark{}) || ch != (Chain{}) {
		t.Fatalf("promoted generation header: base %+v chain %+v err %v, want a root", hdr.Base, ch, err)
	}
	got, gotMeta, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore after repair: %v", err)
	}
	if gotMeta != meta {
		t.Fatalf("restored meta %+v", gotMeta)
	}
	if d := DigestMesh(finishFrom(t, got)); d != DigestMesh(run.ref) {
		t.Fatalf("post-repair resume digest %08x, reference %08x", d, DigestMesh(run.ref))
	}
	// The writer's tip re-rooted on the repair: the next save is a link
	// over the promoted root and restores clean.
	run.step(t, 1)
	saveLink(t, w, run.lv.CaptureState(), meta)
	if _, _, err := Restore(dir); err != nil {
		t.Fatalf("Restore through post-repair chain: %v", err)
	}
}

// TestScrubQuarantinesMissingBaseOrphans: when a link's base FILE is
// gone entirely (lost, not corrupt), the dependent links are orphans —
// quarantined, not silently deleted — and with no survivor the pass
// reports nothing restorable rather than inventing a repair.
func TestScrubQuarantinesMissingBaseOrphans(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := chainDir(t, dir)
	if err := os.Remove(filepath.Join(dir, ckptName(1))); err != nil {
		t.Fatal(err)
	}
	res, err := w.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if res.Quarantined != 2 || res.Verified != 0 {
		t.Fatalf("scrub of orphaned chain: %+v, want both links quarantined", res)
	}
	if res.NewestOK || res.Repaired != 0 {
		t.Fatalf("scrub of empty survivor set claimed newest=%016x ok=%v repaired=%d", res.Newest, res.NewestOK, res.Repaired)
	}
	if got := badFiles(t, dir); len(got) != 2 {
		t.Fatalf("quarantine files %v, want both orphans", got)
	}
}

// TestScrubPromotesPastCorruptTip: with only the newest link corrupt,
// the pass quarantines it alone and promotes the newest survivor to a
// fresh root, and Restore lands on it.
func TestScrubPromotesPastCorruptTip(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := chainDir(t, dir)
	// Corrupt the NEWEST link (gen 3): gens 1–2 still restore.
	p3 := filepath.Join(dir, ckptName(3))
	data, err := os.ReadFile(p3)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-12] ^= 0xff
	if err := os.WriteFile(p3, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := w.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if res.Quarantined != 1 {
		t.Fatalf("scrub result %+v, want 1 quarantined", res)
	}
	// gen 3 was the newest on disk and it was lost, so the pass promotes
	// the newest survivor (gen 2's resolved state) to a fresh root.
	if res.Repaired != 1 {
		t.Fatalf("scrub result %+v, want the lost tip repaired by promotion", res)
	}
	got, _, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore after promotion: %v", err)
	}
	if prom, _, err := readHeader(filepath.Join(dir, ckptName(res.Newest))); err != nil || got.Round != prom.Round {
		t.Fatalf("Restore returned round %d, want the promoted generation %016x (err %v)", got.Round, res.Newest, err)
	}
}

// TestScrubQuarantinesNonFiniteRoot: a root holding a NaN point is
// well-formed and CRC-valid, so only validation can tell it is corrupt.
// The pass must quarantine it like any other corrupt file and re-root
// on the chain below it.
func TestScrubQuarantinesNonFiniteRoot(t *testing.T) {
	dir := t.TempDir()
	w, run, meta := chainDir(t, dir)
	nan := *run.lv.CaptureState()
	nan.Pts = append([]geom.Point(nil), nan.Pts...)
	nan.Pts[3].Y = math.NaN()
	saveRoot(t, w, &nan, meta) // gen 4
	res, err := w.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if res.Verified != 3 || res.Quarantined != 1 || res.Repaired != 1 {
		t.Fatalf("scrub result %+v, want 3 verified, the NaN root quarantined and a repair", res)
	}
	if bad := badFiles(t, dir); len(bad) != 1 || bad[0] != ckptName(4)+badSuffix {
		t.Fatalf("quarantine files %v, want the NaN root", bad)
	}
	got, _, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore after scrub: %v", err)
	}
	if d := DigestMesh(finishFrom(t, got)); d != DigestMesh(run.ref) {
		t.Fatalf("post-scrub resume digest %08x, reference %08x", d, DigestMesh(run.ref))
	}
}
