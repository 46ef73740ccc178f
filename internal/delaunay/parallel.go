package delaunay

import (
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/hashtable"
	"repro/internal/parallel"
)

// This file is the parallel round engine of Algorithm 5 (ParIncrementalDT).
// Each round runs four fully parallel, steady-state-allocation-free phases
// over the arena in arena.go (see DESIGN.md in this directory for the
// correctness arguments):
//
//   Activation  — a parallel blocked filter over the candidate faces
//                 (previously a serial loop): evaluate Algorithm 5's line-6
//                 condition per face into dense scratch, then PackInto the
//                 fire list.
//   Phase A     — read-only: compute every new triangle's corners and
//                 encroacher list (carved from per-block E sub-arenas).
//   Phase B     — install the new triangles into the face map and record
//                 each fire's three touched faces in dense emission slots;
//                 every touch stamps the face with (round, min fire index)
//                 through the same face-map update (the CAS-claimed
//                 round-stamp).
//   Emission    — the sort-free candidate dedup: a face touched from both
//                 sides this round carries the smaller toucher's fire index
//                 in its claim stamp, so exactly the slot of that winner
//                 survives the flag pass, and PackInto yields next round's
//                 candidate list with no sort and no merge. Min over
//                 touchers is schedule-independent, so the candidate order
//                 — and with it triangle ids and the whole output — is
//                 deterministic.

// faceEntry is a face's up-to-two incident triangles plus its dedup stamp
// in the concurrent face map. It encodes into two 64-bit words, so the
// face map is a hashtable.LockFreeInline and winning updates allocate
// nothing.
type faceEntry struct {
	t0, t1 int32 // incident triangles (t1 == NoTri: waiting or hull face)
	round  int32 // last round this face was touched
	claim  int32 // smallest fire index that touched it in that round
}

//
//ridt:noalloc
func encFace(e faceEntry) (uint64, uint64) {
	return uint64(uint32(e.t0))<<32 | uint64(uint32(e.t1)),
		uint64(uint32(e.round))<<32 | uint64(uint32(e.claim))
}

//
//ridt:noalloc
func decFace(a, b uint64) faceEntry {
	return faceEntry{
		t0: int32(uint32(a >> 32)), t1: int32(uint32(a)),
		round: int32(uint32(b >> 32)), claim: int32(uint32(b)),
	}
}

// fire describes one ReplaceBoundary scheduled for the current round: face
// fk is ripped from the t side (whose earliest encroacher is the new point)
// with to on the other side (NoTri for hull faces of the bounding triangle).
type fire struct {
	fk    uint64
	t, to int32
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
// D(G_T(V)) = O(d log n) whp (Theorem 4.3).
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

func newRoundEngine(pts []geom.Point) *roundEngine {
	s := newStore(pts)
	// Reserve the triangle log up front: the run creates ~O(n) triangles
	// (Theorem 4.5's accounting), so the append path almost never regrows.
	if cap(s.tris) < 4*s.n+16 {
		tris := make([]Tri, len(s.tris), 4*s.n+16)
		copy(tris, s.tris)
		s.tris = tris
		depth := make([]int32, len(s.depth), 4*s.n+16)
		copy(depth, s.depth)
		s.depth = depth
	}
	// The face map is the hot path: a lock-free table with seqlock inline
	// value slots (see hashtable/DESIGN.md), so the attachment storm of a
	// round performs no allocation. The identity hasher suffices: the
	// table applies its own finalizing Mix64 to spread packed face keys.
	// Pre-sizing covers the common case; growth is cooperative if a
	// workload overflows it.
	faces := hashtable.NewLockFreeInline[uint64, faceEntry](8*len(pts)+16,
		func(k uint64) uint64 { return k }, encFace, decFace)
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

// attachNewFace registers triangle id on new face fk2 and stamps the
// face's (round, claim-min) dedup claim through the same update. Of the
// up-to-two fires that touch a face in one round, the face ends up
// carrying the smaller fire index, no matter the interleaving — min is
// commutative — which is what makes the sort-free dedup deterministic.
// Factored out of step so the contention race test can drive it directly.
//
//ridt:noalloc
func attachNewFace(faces *hashtable.LockFreeInline[uint64, faceEntry], fk2 uint64, id, round, k int32) {
	//ridtvet:ignore noalloc the closure does not escape Update and stays on the stack (round allocation pin)
	faces.Update(fk2, func(old faceEntry, ok bool) faceEntry {
		if !ok {
			return faceEntry{t0: id, t1: NoTri, round: round, claim: k}
		}
		old.t1 = id
		if old.round == round {
			if k < old.claim {
				old.claim = k
			}
		} else {
			old.round, old.claim = round, k
		}
		return old
	})
}

// Boundary stages passed to a roundEngine's boundaryHook and matching the
// DelaunayPhase fault-site hit points: the top of a round (nothing armed),
// after Phase A (arenas advanced, rollback armed), and after Phase B (face
// map touched).
const (
	stageRoundTop = iota
	stagePostA
	stagePostB
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

	// Mutation section: arm the rollback snapshot, then move the round.
	e.arm(m)
	e.round++
	round := e.round
	s.stats.Rounds++

	// Phase A (parallel, read-only on shared state; advances the arenas).
	nb := parallel.NumBlocks(m, 1)
	ar.newTris = growSlice(ar.newTris, m)
	ar.newDepth = growSlice(ar.newDepth, m)
	ar.preds = growSlice(ar.preds, nb)
	for i := range ar.preds {
		ar.preds[i] = geom.PredicateStats{}
	}
	newTris, newDepth, preds := ar.newTris, ar.newDepth, ar.preds
	earenas := ar.eArenas(nb)
	var tests atomic.Int64
	//ridtvet:ignore noalloc one Phase A closure per round, O(1) against O(m) work
	parallel.BlocksN(0, m, nb, func(bi, lo, hi int) {
		pred := &preds[bi]
		ea := earenas[bi]
		var local int64
		for k := lo; k < hi; k++ {
			f := fires[k]
			v := s.minE(f.t)
			need := len(s.tris[f.t].E)
			if f.to != NoTri {
				need += len(s.tris[f.to].E)
			}
			buf := ea.take(need)
			tri, tc := s.newTriData(f.to, f.fk, f.t, v, pred, buf)
			ea.commit(len(tri.E))
			local += tc
			newTris[k] = tri
			d := s.depth[f.t] + 1
			if f.to != NoTri && s.depth[f.to]+1 > d {
				d = s.depth[f.to] + 1
			}
			newDepth[k] = d
		}
		tests.Add(local)
	})
	s.stats.InCircleTests += tests.Load()
	for i := range preds {
		s.pred.Merge(preds[i])
	}
	if fault.Enabled {
		fault.Inject(fault.DelaunayPhase) // post-A: arenas advanced, armed
	}
	if e.boundaryHook != nil {
		e.boundaryHook(stagePostA)
	}

	// Phase B: the triangle append and the face-map installs.
	e.rb.phaseB = true
	base := int32(len(s.tris))
	//ridtvet:ignore noalloc the triangle log is reserved to its final size in newRoundEngine; the append almost never regrows
	s.tris = append(s.tris, newTris...)
	//ridtvet:ignore noalloc reserved alongside the triangle log in newRoundEngine
	s.depth = append(s.depth, newDepth...)
	s.stats.TrianglesCreated += int64(m)

	ar.dense = growSlice(ar.dense, 3*m)
	dense := ar.dense
	//ridtvet:ignore noalloc one Phase B closure per round, O(1) against O(m) work
	parallel.BlocksN(0, m, nb, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			f := fires[k]
			id := base + int32(k)
			k32 := int32(k)
			v := newTris[k].V
			// The ripped face now borders the new triangle instead of t.
			// It fired, so it already has both triangles and cannot be
			// touched as a new face this round: this fire is its only
			// toucher and wins its stamp outright.
			//ridtvet:ignore noalloc the closure does not escape Update and stays on the stack (round allocation pin)
			faces.Update(f.fk, func(old faceEntry, ok bool) faceEntry {
				if old.t0 == f.t {
					old.t0 = id
				} else {
					old.t1 = id
				}
				old.round, old.claim = round, k32
				return old
			})
			dense[3*k] = f.fk
			// Register the two new faces of t'. A new face may be touched
			// by the fire on its other side in the same round (created
			// there, attached here, in either order) — the claim-min stamp
			// picks the winner deterministically.
			a, b := faceEnds(f.fk)
			apex := v[0] + v[1] + v[2] - a - b
			nf0, nf1 := faceKey(a, apex), faceKey(b, apex)
			dense[3*k+1], dense[3*k+2] = nf0, nf1
			attachNewFace(faces, nf0, id, round, k32)
			attachNewFace(faces, nf1, id, round, k32)
		}
	})
	if fault.Enabled {
		fault.Inject(fault.DelaunayPhase) // post-B: face map touched, armed
	}
	if e.boundaryHook != nil {
		e.boundaryHook(stagePostB)
	}

	// Emission: keep exactly each touched face's winning slot. The flag
	// pass linearizes after Phase B's barrier, so every load observes the
	// face's final (round, claim) stamp for this round.
	ar.keep = growSlice(ar.keep, 3*m)
	keep := ar.keep
	//ridtvet:ignore noalloc one emission closure per round, O(1) against O(m) work
	parallel.Blocks(0, 3*m, emissionGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ent, _ := faces.Load(dense[i])
			keep[i] = ent.round == round && ent.claim == int32(i/3)
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
