//go:build ridtfault

package checkpoint

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/fault"
)

// Hits per save at each site, fixed by the commit protocol and the same
// for a root and a link: one CheckpointFrame per frame of the format, one
// CheckpointCommit per step of the commit sequence (fsync, rename, dir
// sync). The counts are asserted before use so a protocol change updates
// this table consciously.
const (
	frameHitsPerSave  = numFrames
	commitHitsPerSave = 3
)

// TestCheckpointFaultEveryHit forces a failure at EVERY distinct
// injection point of the save protocol, for a root save and for a link
// save, in both failure modes — a typed I/O error and a crash (panic) —
// and proves the durability claim each time: after the failure, Restore
// still yields a fully valid committed generation whose resumed run is
// byte-equal to the deterministic reference, and a post-restart retry
// commits normally.
func TestCheckpointFaultEveryHit(t *testing.T) {
	st1, _ := midState(t, 31, 400, 2)
	st2, ref := midState(t, 31, 400, 4)
	refDigest := DigestMesh(ref)

	// st1 and st2 are boundaries of the SAME deterministic run (midState
	// replays seed 31 from scratch), so st2 saved under st1's Meta chains
	// as a link over the generation holding st1; under another Meta it is
	// a root.
	saveSecond := map[Kind]func(w *Writer) error{
		KindFull:  func(w *Writer) error { _, _, err := w.SaveAuto(st2, Meta{Build: 2}); return err },
		KindDelta: func(w *Writer) error { _, _, err := w.SaveAuto(st2, Meta{Build: 1}); return err },
	}
	for _, tc := range []struct {
		site fault.Site
		kind Kind
		hits int
	}{
		{fault.CheckpointFrame, KindFull, frameHitsPerSave},
		{fault.CheckpointFrame, KindDelta, frameHitsPerSave},
		{fault.CheckpointCommit, KindFull, commitHitsPerSave},
		{fault.CheckpointCommit, KindDelta, commitHitsPerSave},
	} {
		// Assert the hit count before enumerating: a protocol change that
		// adds or removes an injection point must fail loudly here rather
		// than silently skip coverage.
		func() {
			if err := fault.Enable(fault.Config{Seed: 1, SiteMask: fault.MaskOf(tc.site)}); err != nil {
				t.Fatalf("Enable: %v", err)
			}
			defer fault.Disable()
			dir := t.TempDir()
			w, err := NewWriter(dir)
			if err != nil {
				t.Fatalf("NewWriter: %v", err)
			}
			if _, _, err := w.SaveAuto(st1, Meta{Build: 1}); err != nil {
				t.Fatalf("Save under zero-rate plan: %v", err)
			}
			pre := fault.Hits(tc.site)
			if err := saveSecond[tc.kind](w); err != nil {
				t.Fatalf("second save under zero-rate plan: %v", err)
			}
			if got := fault.Hits(tc.site) - pre; got != uint64(tc.hits) {
				t.Fatalf("%v fires %d times per %v save, table says %d — update the table and the enumeration",
					tc.site, got, tc.kind, tc.hits)
			}
			if (w.tip.links > 0) != (tc.kind == KindDelta) {
				t.Fatalf("second save committed with %d links, want a %v", w.tip.links, tc.kind)
			}
		}()

		for hit := 0; hit < tc.hits; hit++ {
			for _, mode := range []string{"err", "panic"} {
				t.Run(fmt.Sprintf("%v/%v/hit%d/%s", tc.site, tc.kind, hit, mode), func(t *testing.T) {
					dir := t.TempDir()
					w, err := NewWriter(dir)
					if err != nil {
						t.Fatalf("NewWriter: %v", err)
					}
					// A good older generation first, so a failed newer save
					// always has a committed fallback.
					if _, _, err := w.SaveAuto(st1, Meta{Build: 1}); err != nil {
						t.Fatalf("baseline Save: %v", err)
					}

					cfg := fault.Config{Seed: 7, FirstHit: uint64(hit), SiteMask: fault.MaskOf(tc.site)}
					if mode == "err" {
						cfg.ErrRate, cfg.MaxErrs = 1, 1
					} else {
						cfg.PanicRate, cfg.MaxPanics = 1, 1
					}
					if err := fault.Enable(cfg); err != nil {
						t.Fatalf("Enable: %v", err)
					}
					var saveErr error
					panicked := false
					func() {
						defer func() {
							if r := recover(); r != nil {
								panicked = true
								if _, ok := r.(fault.Injected); !ok {
									panic(r)
								}
							}
						}()
						saveErr = saveSecond[tc.kind](w)
					}()
					fault.Disable()
					switch mode {
					case "err":
						if saveErr == nil {
							t.Fatal("Save succeeded through an injected error")
						}
						var ie fault.InjectedError
						if !errors.As(saveErr, &ie) || ie.Site != tc.site {
							t.Fatalf("Save error %v does not wrap the injected fault", saveErr)
						}
					case "panic":
						if !panicked {
							t.Fatal("Save survived an injected panic")
						}
					}

					// The durability claim: whatever just happened, the
					// directory restores to a committed prefix of the one
					// deterministic run.
					got, meta, err := Restore(dir)
					if err != nil {
						t.Fatalf("Restore after %s at hit %d: %v", mode, hit, err)
					}
					if meta.Build != 1 && meta.Build != 2 {
						t.Fatalf("restored meta %+v is neither generation", meta)
					}
					if d := DigestMesh(finishFrom(t, got)); d != refDigest {
						t.Fatalf("resumed digest %08x, reference %08x", d, refDigest)
					}

					// Restart: a fresh writer cleans any temp litter and the
					// retried save commits and wins.
					w2, err := NewWriter(dir)
					if err != nil {
						t.Fatalf("NewWriter restart: %v", err)
					}
					if _, _, err := w2.SaveAuto(st2, Meta{Build: 2}); err != nil {
						t.Fatalf("retry Save: %v", err)
					}
					got2, meta2, err := Restore(dir)
					if err != nil || meta2.Build != 2 || got2.Round != st2.Round {
						t.Fatalf("post-retry Restore: meta %+v round %v err %v", meta2, got2.Round, err)
					}
				})
			}
		}
	}
}

// scrubHitsPerPass: ScrubVerify fires exactly once per generation file
// walked, so a chainDir directory (one root + two links) yields three
// hits per pass.
const scrubHitsPerPass = 3

// TestScrubFaultEveryHit forces a failure at EVERY ScrubVerify hit of a
// scrub pass over a healthy chain, in both failure modes. An injected
// READ error must only skip the unverifiable file (and leave its
// dependents unjudged) — never quarantine, never repair, never shadow
// the tip with a bogus promotion. A crash mid-pass must leave the
// directory fully restorable, and the next clean pass must verify
// everything as if the fault never happened.
func TestScrubFaultEveryHit(t *testing.T) {
	// Assert the per-pass hit count under a zero-rate plan first, so a
	// scrubber change that adds or removes an injection point fails
	// loudly instead of silently narrowing the walk below.
	func() {
		if err := fault.Enable(fault.Config{Seed: 1, SiteMask: fault.MaskOf(fault.ScrubVerify)}); err != nil {
			t.Fatalf("Enable: %v", err)
		}
		defer fault.Disable()
		dir := t.TempDir()
		w, _, _ := chainDir(t, dir)
		pre := fault.Hits(fault.ScrubVerify)
		if _, err := w.Scrub(); err != nil {
			t.Fatalf("Scrub under zero-rate plan: %v", err)
		}
		if got := fault.Hits(fault.ScrubVerify) - pre; got != scrubHitsPerPass {
			t.Fatalf("ScrubVerify fires %d times per pass, table says %d — update the table and the walk",
				got, scrubHitsPerPass)
		}
	}()

	for hit := 0; hit < scrubHitsPerPass; hit++ {
		for _, mode := range []string{"err", "panic"} {
			t.Run(fmt.Sprintf("hit%d/%s", hit, mode), func(t *testing.T) {
				dir := t.TempDir()
				w, run, _ := chainDir(t, dir)
				refDigest := DigestMesh(run.ref)

				cfg := fault.Config{Seed: 9, FirstHit: uint64(hit), SiteMask: fault.MaskOf(fault.ScrubVerify)}
				if mode == "err" {
					cfg.ErrRate, cfg.MaxErrs = 1, 1
				} else {
					cfg.PanicRate, cfg.MaxPanics = 1, 1
				}
				if err := fault.Enable(cfg); err != nil {
					t.Fatalf("Enable: %v", err)
				}
				var res ScrubResult
				var scrubErr error
				panicked := false
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicked = true
							if _, ok := r.(fault.Injected); !ok {
								panic(r)
							}
						}
					}()
					res, scrubErr = w.Scrub()
				}()
				fault.Disable()

				switch mode {
				case "err":
					if scrubErr != nil {
						t.Fatalf("Scrub aborted on a read failure: %v (must skip and continue)", scrubErr)
					}
					// The walk is oldest-first and an unjudged base leaves
					// its dependents unjudged too, so a failure at hit k
					// verifies exactly the k generations before it.
					if res.Verified != hit || res.Skipped != scrubHitsPerPass-hit {
						t.Fatalf("scrub under read failure at hit %d: %+v, want verified=%d skipped=%d",
							hit, res, hit, scrubHitsPerPass-hit)
					}
					if res.Quarantined != 0 || res.Repaired != 0 {
						t.Fatalf("an unverifiable file was treated as corrupt: %+v", res)
					}
				case "panic":
					if !panicked {
						t.Fatal("Scrub survived an injected panic")
					}
				}
				if bad := badFiles(t, dir); len(bad) != 0 {
					t.Fatalf("healthy generations quarantined after %s at hit %d: %v", mode, hit, bad)
				}

				// The durability claim: the scrubber dying (or misreading)
				// at any step leaves the chain restorable to the reference.
				got, _, err := Restore(dir)
				if err != nil {
					t.Fatalf("Restore after %s at hit %d: %v", mode, hit, err)
				}
				if d := DigestMesh(finishFrom(t, got)); d != refDigest {
					t.Fatalf("resumed digest %08x, reference %08x", d, refDigest)
				}

				// The next clean pass settles every generation.
				res2, err := w.Scrub()
				if err != nil {
					t.Fatalf("clean pass after fault: %v", err)
				}
				if res2.Verified != scrubHitsPerPass || res2.Skipped != 0 ||
					res2.Quarantined != 0 || res2.Repaired != 0 {
					t.Fatalf("clean pass after fault left work undone: %+v", res2)
				}
			})
		}
	}
}
