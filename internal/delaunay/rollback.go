package delaunay

import "repro/internal/geom"

// Round-atomic rollback for the parallel round engine. A round either
// commits in full or leaves no trace: when a panic escapes a phase
// (injected under ridtfault or otherwise), the engine rolls the store, the
// face map, the encroacher arenas, and the stats back to the previous
// round's boundary. The candidate list is only swapped at commit, so a
// retried round re-derives the identical fire set (activation is a pure
// function of the rolled-back state) and produces the identical
// triangulation: recovery never perturbs determinism, it only decides how
// many rounds run.
//
// Rollback is lazy: step arms a dirty flag before the first mutation and
// clears it at commit; a panic propagates with the flag still set, and
// the next use of the engine repairs state first. This avoids a deferred
// closure on the hot path (the defer would be a per-round allocation and
// a capturing closure inside a //ridt:noalloc body).
//
// Cancellation never needs rollback: Live.Step checks its token only at a
// committed boundary, before a round arms, so a canceled Step has nothing
// to undo.
//
// What rollback must undo, by phase:
//
//   - Activation writes only arena scratch — nothing to undo; the round
//     counter and stats are untouched until the engine arms.
//   - The fire loop advances the per-block encroacher arenas and the
//     predicate/stat counters, writes the round's log slots, and touches
//     the face map: rewind each arena to its armed (ci, pos) mark, restore
//     the stats/pred snapshots, truncate the triangle log to its armed
//     length, and un-touch the faces fire by fire — conditionally, because
//     a panicked round stops with an arbitrary subset of fires installed.
//     For fire k with new triangle id = base+k: the ripped face's t-side is
//     restored to f.t if it was re-pointed to id; each of the two tent
//     faces is deleted if this attach created it (t0 == id) or has its t1
//     reset to NoTri if this attach joined an existing entry. No entry of
//     a committed round names an id at or past base, so a fire that never
//     ran matches nothing and no-ops. The tent faces are (a, v) and (b, v)
//     for the ripped face (a, b) and the inserted point v = minE(f.t),
//     read from f.t, which predates the round and survives the truncation.
//     Deleted tent faces are value-level tombstones; the retry's attach
//     re-creates them.

// i32mark is a saved (chunk, offset) cursor of an i32arena.
type i32mark struct{ ci, pos int }

// rollbackState is the armed snapshot that makes one round revocable.
type rollbackState struct {
	dirty   bool // a round's mutation section is (or was) in flight
	trisLen int  // triangle-log length at arm time
	m       int  // fires of this round
	stats   Stats
	pred    geom.PredicateStats
	marks   []i32mark // encroacher-arena cursors at arm time
}

// arm snapshots everything the round may mutate. Called once per round,
// before the round counter moves.
func (e *roundEngine) arm(m int) {
	rb := &e.rb
	rb.dirty = true
	rb.trisLen = len(e.s.tris)
	rb.m = m
	rb.stats = e.s.stats
	rb.pred = *e.s.pred
	rb.marks = growSlice(rb.marks, len(e.ar.earenas))
	for i, a := range e.ar.earenas {
		rb.marks[i] = i32mark{a.ci, a.pos}
	}
}

// rollback repairs the engine to the state armed by the current round.
// Idempotent (a clean engine is untouched) and single-threaded: it runs
// only after the round's parallel loops have returned or panicked out.
func (e *roundEngine) rollback() {
	rb := &e.rb
	if !rb.dirty {
		return
	}
	s, ar := e.s, e.ar
	base := int32(rb.trisLen)
	for k, f := range ar.fires[:rb.m] {
		id := base + int32(k)
		// Ripped face: this fire's update re-pointed its t side at the new
		// triangle; point it back. An entry not referencing id means this
		// fire never got that far — leave it alone.
		if ent, ok := e.faces.Load(f.fk); ok {
			if ent.t0 == id {
				ent.t0 = f.t
				e.faces.Store(f.fk, ent)
			} else if ent.t1 == id {
				ent.t1 = f.t
				e.faces.Store(f.fk, ent)
			}
		}
		// Tent faces: delete what this attach created, detach what it
		// joined. The other side's fire (if any) erases its own mark;
		// whichever order the loop visits them, the key ends absent or
		// exactly as it was before the round.
		a, b := faceEnds(f.fk)
		v := s.minE(f.t)
		for _, nf := range [2]uint64{faceKey(a, v), faceKey(b, v)} {
			ent, ok := e.faces.Load(nf)
			if !ok {
				continue
			}
			if ent.t0 == id {
				e.faces.Delete(nf)
			} else if ent.t1 == id {
				ent.t1 = NoTri
				e.faces.Store(nf, ent)
			}
		}
	}
	s.tris = s.tris[:rb.trisLen]
	s.depth = s.depth[:rb.trisLen]
	s.stats = rb.stats
	*s.pred = rb.pred
	for i, a := range ar.earenas {
		if i < len(rb.marks) {
			a.ci, a.pos = rb.marks[i].ci, rb.marks[i].pos
		} else {
			// Created during the abandoned round: nothing committed yet.
			a.ci, a.pos = 0, 0
		}
	}
	e.round--
	rb.dirty = false
}
