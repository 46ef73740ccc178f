package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/fault"
)

// errUnjudged reports a link whose base file exists but was skipped this
// pass: the link is left unjudged rather than quarantined.
var errUnjudged = errors.New("checkpoint: base unverified this pass")

// ScrubResult summarizes one scrub pass over a checkpoint directory.
type ScrubResult struct {
	Verified    int // generations read, decoded, and validated clean
	Skipped     int // generations left unjudged (read error: unverifiable, not provably corrupt)
	Quarantined int // generations renamed to ckpt-<gen>.bad
	Repaired    int // promotions of a resolvable state to a fresh root
	Newest      uint64
	NewestOK    bool // a restorable generation survived the pass
}

func (r ScrubResult) String() string {
	return fmt.Sprintf("verified=%d skipped=%d quarantined=%d repaired=%d", r.Verified, r.Skipped, r.Quarantined, r.Repaired)
}

// Scrub is the self-healing pass: re-read every committed generation with
// a full decode + structural validation, quarantine what is provably
// corrupt, and repair the chain so the directory restores without help.
//
// Per generation, oldest-first:
//
//   - The file is re-read and decoded in full (the ScrubVerify fault site
//     fires first). A READ error — injected or real — only SKIPS the file
//     this pass: an unreadable file is unverifiable, not provably corrupt,
//     and quarantining it would destroy healthy durability.
//   - A file whose BYTES were read but fail decode or validation is
//     provably corrupt: it is renamed to ckpt-<gen>.bad (never silently
//     deleted — the evidence stays on disk for the operator) and the
//     directory is fsynced.
//   - A link whose recorded base is missing, quarantined, or bound to a
//     different content digest is an orphan: equally unable to restore,
//     equally quarantined. (A link whose base was skipped stays unjudged.)
//
// After the walk, if any tip was lost AND a resolvable state survives,
// the newest such state is promoted to a fresh root (an ordinary save:
// same atomic-commit protocol, counted as a repair), so later links
// chain from an intact base instead of a hole. Finally the advisory
// MANIFEST is rewritten if it points at a generation that no longer
// restores.
//
// Scrub shares the writer's lock with saves: a pass never races a commit.
func (w *Writer) Scrub() (ScrubResult, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var res ScrubResult

	ents, err := os.ReadDir(w.dir)
	if err != nil {
		return res, fmt.Errorf("checkpoint: scrub scan: %w", err)
	}
	var gens []uint64
	for _, ent := range ents {
		if g, ok := parseGen(ent.Name()); ok {
			gens = append(gens, g)
		}
	}
	if len(gens) == 0 {
		return res, nil
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	newestOnDisk := gens[len(gens)-1]

	// verdicts: what this pass established per generation. A generation
	// missing from the map was skipped or quarantined — and therefore not
	// usable as a base for judging its dependents either.
	verdicts := make(map[uint64]*resolved, len(gens))
	base := func(b uint64) (*resolved, error) {
		if v := verdicts[b]; v != nil {
			return v, nil
		}
		// No verdict for the base this pass. If its file is simply gone
		// (or already moved to quarantine) the link is a proven orphan; if
		// the file exists but was skipped as unverifiable, the link stays
		// unjudged too — skipping a base must not cascade into
		// quarantining its children.
		if _, err := os.Stat(filepath.Join(w.dir, ckptName(b))); err == nil {
			return nil, errUnjudged
		}
		return nil, os.ErrNotExist
	}

	// lost records generations this pass PROVED unrestorable (moved to
	// quarantine). A skipped file is deliberately absent: unverifiable is
	// not lost, and repairs keyed on it would shadow healthy state.
	lost := make(map[uint64]bool)

	// Oldest-first: a link's base is judged before the link, so one pass
	// settles every chain without revisiting.
	for _, g := range gens {
		if err := fault.InjectErr(fault.ScrubVerify); err != nil {
			res.Skipped++ // injected read failure: unverifiable, not corrupt
			continue
		}
		data, err := os.ReadFile(filepath.Join(w.dir, ckptName(g)))
		if err != nil {
			res.Skipped++
			continue
		}
		st, meta, ch, err := Decode(data)
		if err == nil {
			st, err = join(g, st, meta, ch, base)
		}
		switch {
		case errors.Is(err, errUnjudged):
			res.Skipped++
		case err != nil:
			// Rename, never delete: the corrupt bytes are evidence.
			name := ckptName(g)
			if os.Rename(filepath.Join(w.dir, name), filepath.Join(w.dir, name+badSuffix)) == nil {
				syncDir(w.dir)
				res.Quarantined++
				lost[g] = true
			} else {
				// Could not move it aside; leave it for the next pass.
				res.Skipped++
			}
		default:
			verdicts[g] = &resolved{st: st, meta: meta}
			res.Verified++
		}
	}

	// Find the newest generation that still restores.
	var newestGood uint64
	var newestState *resolved
	for _, g := range gens {
		if v := verdicts[g]; v != nil {
			newestGood, newestState = g, v
		}
	}
	res.Newest, res.NewestOK = newestGood, newestState != nil

	// Repair: if the newest generation on disk was PROVED lost this pass
	// and an older state survives, promote that state to a fresh root so
	// the chain re-roots on an intact base. (The root also resets the
	// writer's tip, so subsequent links bind to the repair.) A merely-
	// skipped tip never triggers promotion: writing a newer generation
	// from an older state would shadow healthy progress.
	if newestState != nil && lost[newestOnDisk] {
		if _, err := w.save(newestState.st, newestState.meta, nil); err == nil {
			res.Repaired++
			res.Newest = w.gen - 1
		}
	} else if newestState != nil {
		// Chain intact at the tip; still re-point the advisory manifest if
		// it is missing or names a generation proved unrestorable.
		if mg, ok := readManifest(w.dir); !ok || (mg != newestGood && lost[mg]) {
			_ = w.writeManifest(newestGood)
		}
	}
	return res, nil
}
