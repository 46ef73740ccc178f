package delaunay

import (
	"slices"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/hashtable"
	"repro/internal/parallel"
)

// This file is the parallel round engine of Algorithm 5 (ParIncrementalDT).
// Each round runs three fully parallel, steady-state-allocation-free phases
// over the arena in arena.go (see DESIGN.md in this directory for the
// correctness arguments):
//
//   Activation  — a parallel blocked filter over the candidate faces:
//                 evaluate Algorithm 5's line-6 condition per face into
//                 dense scratch, then PackInto the fire list.
//   Fires       — each fire k runs ReplaceBoundary whole: it computes its
//                 triangle's corners and encroacher list (carved from
//                 per-block E sub-arenas), writes it at log slot base+k,
//                 installs it in the face map, and records its three
//                 touched faces in dense emission slots 3k..3k+2.
//   Emission    — the sort-free candidate dedup: a face has at most two
//                 touchers per round, both ids in its entry, and only the
//                 smaller fire's slot survives the flag pass
//                 (faceEntry.kept); PackInto yields next round's candidate
//                 list with no sort and no merge. The winner is
//                 schedule-independent, so the candidate order — and with
//                 it triangle ids and the whole output — is deterministic.

// faceEntry is a face's up-to-two incident triangles in the concurrent
// face map. It encodes into one 64-bit word, so the face map is a
// hashtable.LockFreeInline and winning updates allocate nothing.
type faceEntry struct {
	t0, t1 int32 // incident triangles (t1 == NoTri: waiting or hull face)
}

//
//ridt:noalloc
func encFace(e faceEntry) uint64 {
	return uint64(uint32(e.t0))<<32 | uint64(uint32(e.t1))
}

//
//ridt:noalloc
func decFace(w uint64) faceEntry {
	return faceEntry{t0: int32(uint32(w >> 32)), t1: int32(uint32(w))}
}

// kept reports whether emission keeps the slot of the fire that touched
// this face with triangle id, in the round whose ids start at base: it
// does unless the other triangle is a smaller id of this round (earlier
// rounds' ids and NoTri lie below base).
//
//ridt:noalloc
func (e faceEntry) kept(id, base int32) bool {
	other := e.t0
	if other == id {
		other = e.t1
	}
	return other < base || other > id
}

// Grains of the cheap per-element phases; the heavy retriangulation phases
// run at grain 1 (each fire's cost varies with local geometry, so the
// stealing scheduler balances them).
const (
	activationGrain = 64 // face-map load + two minE reads per candidate
	emissionGrain   = 64 // face-map load per touched-face slot
)

// ParTriangulate runs Algorithm 5 (ParIncrementalDT): in every round, all
// faces f = (to, t) with min(E(t)) < min(E(to)) run
// ReplaceBoundary(to, f, t, min(E(t))) in parallel. By Lemma 4.2 the calls
// are exactly those of the sequential algorithm, so the result is the same
// triangulation; the number of rounds is the triangle dependence depth
// D(G_T(V)) = O(d log n) whp (Theorem 4.3). Its input contract is
// Triangulate's.
func ParTriangulate(pts []geom.Point) *Mesh {
	e := newRoundEngine(pts)
	for e.step() {
	}
	return e.s.finish()
}

// roundEngine holds the state threaded between rounds. It is a separate
// type (rather than locals in ParTriangulate) so the tests and benchmarks
// can drive and measure single rounds.
type roundEngine struct {
	s     *store
	faces *hashtable.LockFreeInline[uint64, faceEntry]
	ar    *roundArena
	cand  []uint64 // current candidate faces, deduplicated
	round int32
	rb    rollbackState // armed per round; see rollback.go

	// boundaryHook, when set, is called at each round's phase boundaries
	// (the stage* constants below). Test-only: the rollback and
	// fault-injection tests use it to crash at exact points.
	boundaryHook func(stage int)
}

// newFaceMap returns the round engine's face map for a run over n points,
// sized for at least the given number of faces. The face map is the hot
// path: a lock-free table with one-word inline value slots (see
// hashtable/DESIGN.md), so the attachment storm of a round performs no
// allocation. The identity hasher suffices: the table applies its own
// finalizing Mix64 to spread packed face keys. The 8n+16 pre-size covers
// the common case; step's per-round Reserve grows the table between rounds
// if a workload overflows it.
func newFaceMap(n, faces int) *hashtable.LockFreeInline[uint64, faceEntry] {
	return hashtable.NewLockFreeInline[uint64, faceEntry](max(8*n+16, faces),
		func(k uint64) uint64 { return k }, encFace, decFace)
}

func newRoundEngine(pts []geom.Point) *roundEngine {
	s := newStore(pts)
	faces := newFaceMap(s.n, 0)
	e := &roundEngine{s: s, faces: faces, ar: newRoundArena()}
	// Seed the map with the bounding triangle's three faces.
	tb := s.tris[0]
	for i := 0; i < 3; i++ {
		fk := faceKey(tb.V[i], tb.V[(i+1)%3])
		faces.Store(fk, faceEntry{t0: 0, t1: NoTri})
		e.cand = append(e.cand, fk)
	}
	return e
}

// attachNewFace registers triangle id on new face fk2: it creates the
// entry, or joins it as t1 when the fire on the face's other side (this
// round or an earlier one) created it. Factored out of step so the
// contention race test can drive it directly.
//
//ridt:noalloc
func attachNewFace(faces *hashtable.LockFreeInline[uint64, faceEntry], fk2 uint64, id int32) {
	//ridtvet:ignore noalloc the closure does not escape Update and stays on the stack (round allocation pin)
	faces.Update(fk2, func(old faceEntry, ok bool) faceEntry {
		if !ok {
			return faceEntry{t0: id, t1: NoTri}
		}
		old.t1 = id
		return old
	})
}

// Boundary stages passed to a roundEngine's boundaryHook. The first two
// match the DelaunayPhase fault-site hit points: the top of a round
// (nothing armed) and after the fire loop (triangles written, face map
// touched, rollback armed). stageFire is passed once per fire inside the
// loop, after the fire writes its triangle and repoints its ripped face
// and before it attaches its tent faces, so a panic there leaves the
// face map partially installed.
const (
	stageRoundTop = iota
	stagePostFires
	stageFire
)

// step runs one round; it reports false (and does nothing further) when no
// face activates, i.e. the triangulation is complete. A panic escaping a
// phase leaves the engine dirty; the next step repairs it before doing
// anything else (rollback.go).
//
//ridt:noalloc
func (e *roundEngine) step() bool {
	if e.rb.dirty {
		e.rollback()
	}
	if fault.Enabled {
		fault.Inject(fault.DelaunayPhase) // round top: nothing armed yet
	}
	if e.boundaryHook != nil {
		e.boundaryHook(stageRoundTop)
	}
	s, ar, faces := e.s, e.ar, e.faces

	// Activation (scratch-only: safe to discard without rollback).
	nc := len(e.cand)
	ar.evalF = growSlice(ar.evalF, nc)
	ar.evalOK = growSlice(ar.evalOK, nc)
	cand, evalF, evalOK := e.cand, ar.evalF, ar.evalOK
	//ridtvet:ignore noalloc one activation closure per round, O(1) against O(m) work
	parallel.Blocks(0, nc, activationGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			evalOK[i] = false
			ent, ok := faces.Load(cand[i])
			if !ok {
				continue
			}
			if ent.t1 == NoTri && !s.isBoundingEdge(cand[i]) {
				continue // waiting for the second incident triangle
			}
			m0, m1 := s.minE(ent.t0), s.minE(ent.t1)
			switch {
			case m0 < m1:
				evalF[i] = fire{cand[i], ent.t0, ent.t1}
				evalOK[i] = true
			case m1 < m0:
				evalF[i] = fire{cand[i], ent.t1, ent.t0}
				evalOK[i] = true
			}
		}
	})
	ar.fires, ar.counts = parallel.PackInto(ar.fires, evalF,
		//ridtvet:ignore noalloc one pack predicate per round, O(1) against O(m) work
		func(i int) bool { return evalOK[i] }, ar.counts)
	fires := ar.fires
	m := len(fires)
	if m == 0 {
		return false
	}
	// Each fire adds at most its two new faces to the face map, so the
	// round's growth is known before the fires run; Reserve is the table's
	// one growth point. It runs before arm, so a panic here leaves the
	// engine clean.
	faces.Reserve(2 * m)

	// Mutation section: arm the rollback snapshot, then move the round.
	e.arm(m)
	e.round++
	s.stats.Rounds++

	// Fires: fire k creates its triangle, writes it at log slot base+k
	// and installs it in the face map, in one parallel loop. A fire reads
	// only triangles older than the round (its t and to, and their E
	// lists), and no fire's triangle depends on the face map, so the
	// fires of a round are independent. The log is reserved at logCap, so
	// the grow almost never reallocates.
	nb := parallel.NumBlocks(m, 1)
	base := int32(len(s.tris))
	s.tris = slices.Grow(s.tris, m)[:int(base)+m]
	s.depth = slices.Grow(s.depth, m)[:int(base)+m]
	s.stats.TrianglesCreated += int64(m)
	ar.preds = growSlice(ar.preds, nb)
	for i := range ar.preds {
		ar.preds[i] = geom.PredicateStats{}
	}
	ar.dense = growSlice(ar.dense, 3*m)
	tris, depth, preds, dense := s.tris, s.depth, ar.preds, ar.dense
	earenas := ar.eArenas(nb)
	hook := e.boundaryHook // nil in production: one branch per fire
	var tests atomic.Int64
	//ridtvet:ignore noalloc one fire closure per round, O(1) against O(m) work
	parallel.BlocksN(0, m, nb, func(bi, lo, hi int) {
		pred := &preds[bi]
		ea := earenas[bi]
		var local int64
		for k := lo; k < hi; k++ {
			f := fires[k]
			id := base + int32(k)
			v := s.minE(f.t)
			tri, d, tc := s.replaceBoundary(f, v, pred, ea)
			tris[id], depth[id] = tri, d
			local += tc
			// The ripped face now borders the new triangle instead of t.
			// It fired, so it already has both triangles and cannot be
			// touched as a new face this round: this fire is its only
			// toucher.
			//ridtvet:ignore noalloc the closure does not escape Update and stays on the stack (round allocation pin)
			faces.Update(f.fk, func(old faceEntry, ok bool) faceEntry {
				if old.t0 == f.t {
					old.t0 = id
				} else {
					old.t1 = id
				}
				return old
			})
			dense[3*k] = f.fk
			if hook != nil {
				hook(stageFire)
			}
			// Register the two new faces of t'. A new face may be touched
			// by the fire on its other side in the same round (created
			// there, attached here, in either order); emission keeps the
			// smaller fire's slot.
			a, b := faceEnds(f.fk)
			nf0, nf1 := faceKey(a, v), faceKey(b, v)
			dense[3*k+1], dense[3*k+2] = nf0, nf1
			attachNewFace(faces, nf0, id)
			attachNewFace(faces, nf1, id)
		}
		tests.Add(local)
	})
	s.stats.InCircleTests += tests.Load()
	for i := range preds {
		s.pred.Merge(preds[i])
	}
	if fault.Enabled {
		fault.Inject(fault.DelaunayPhase) // post-fires: face map touched, armed
	}
	if e.boundaryHook != nil {
		e.boundaryHook(stagePostFires)
	}

	// Emission: keep exactly each touched face's winning slot. The flag
	// pass runs after the fire loop's barrier, so every load observes both
	// of the face's touchers.
	ar.keep = growSlice(ar.keep, 3*m)
	keep := ar.keep
	//ridtvet:ignore noalloc one emission closure per round, O(1) against O(m) work
	parallel.Blocks(0, 3*m, emissionGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ent, _ := faces.Load(dense[i])
			keep[i] = ent.kept(base+int32(i/3), base)
		}
	})
	next, counts := parallel.PackInto(ar.cand, dense,
		//ridtvet:ignore noalloc one pack predicate per round, O(1) against O(m) work
		func(i int) bool { return keep[i] }, ar.counts)
	ar.counts = counts
	ar.cand = e.cand // recycle the old candidate buffer
	e.cand = next
	e.rb.dirty = false // commit: the round is final
	return true
}
