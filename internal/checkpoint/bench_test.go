package checkpoint

// BenchmarkCheckpoint*: the durability layer's price list, recorded in
// BENCH_checkpoint.json and gated by the CI bench job. Write and Restore
// price the background saver's work (off the build's critical path);
// the synchronous cost a checkpoint adds to the publisher is
// BenchmarkCheckpointOverhead in internal/delaunay, budgeted as a share
// of a traced perfbench serve build.

import (
	"os"
	"testing"
)

func BenchmarkCheckpointWrite(b *testing.B) {
	st, _ := midState(b, 77, 1<<13, 6)
	dir := b.TempDir()
	w, err := NewWriter(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(Encode(st, Meta{}))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		saveRoot(b, w, st, Meta{Seed: 77, Build: 1})
	}
}

// BenchmarkCheckpointDeltaWrite prices one link save: the same state
// cadence as BenchmarkCheckpointWrite's root, but serialized as a link
// over the previous boundary. The writer's chain tip is reset to the
// base before every iteration so each save is the SAME one-round link —
// this is the number that must sit well below the root write for the
// incremental scheme to pay for itself.
func BenchmarkCheckpointDeltaWrite(b *testing.B) {
	st1, _ := midState(b, 77, 1<<13, 6)
	st2, _ := midState(b, 77, 1<<13, 7)
	dir := b.TempDir()
	w, err := NewWriter(dir)
	if err != nil {
		b.Fatal(err)
	}
	meta := Meta{Seed: 77, Build: 1}
	saveRoot(b, w, st1, meta)
	w.mu.Lock()
	tip := *w.tip // chain tip for st1's generation
	w.mu.Unlock()
	if fi, err := os.Stat(saveLink(b, w, st2, meta)); err == nil {
		b.SetBytes(fi.Size())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.mu.Lock()
		tc := tip
		w.tip = &tc
		w.mu.Unlock()
		saveLink(b, w, st2, meta)
	}
}

// BenchmarkCheckpointDeltaRestore prices restoring through a chain (a
// root + 3 links): read + decode + structural validation per image, then
// per-link chain verification and ApplyDelta joins.
func BenchmarkCheckpointDeltaRestore(b *testing.B) {
	run := newLiveRun(b, 77, 1<<13)
	run.step(b, 4)
	dir := b.TempDir()
	w, err := NewWriter(dir)
	if err != nil {
		b.Fatal(err)
	}
	meta := Meta{Seed: 77, Build: 1}
	saveRoot(b, w, run.lv.CaptureState(), meta)
	var total int64
	for i := 0; i < 3; i++ {
		run.step(b, 1)
		if fi, err := os.Stat(saveLink(b, w, run.lv.CaptureState(), meta)); err == nil {
			total += fi.Size()
		}
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Restore(dir); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointRestore(b *testing.B) {
	st, _ := midState(b, 77, 1<<13, 6)
	dir := b.TempDir()
	w, err := NewWriter(dir)
	if err != nil {
		b.Fatal(err)
	}
	if fi, err := os.Stat(saveRoot(b, w, st, Meta{Seed: 77, Build: 1})); err == nil {
		b.SetBytes(fi.Size())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Restore(dir); err != nil {
			b.Fatal(err)
		}
	}
}
