package delaunay

import (
	"repro/internal/geom"
)

// This file holds the round arena: the reusable scratch behind
// ParTriangulate's round engine. Every per-round slice (activation
// scratch, fires, new-triangle staging, per-block predicate counters, the
// dense candidate-emission slots, pack scratch) lives here and is resized
// in place, so steady-state rounds allocate O(1) — only the scheduler's
// per-loop task state and the occasional capacity growth while the
// largest round is still being discovered. The per-triangle encroacher
// lists of both engines are carved from chunked arenas (i32arena; one per
// parallel block here, one for the whole run in Triangulate) instead of
// one make per triangle; those lists outlive the round (a triangle's E is
// read when it is ripped, rounds later), so the E arenas are append-only
// for the run and cost one chunk allocation per ~8K entries rather than
// one per triangle.

// i32chunk is the allocation unit of an i32arena: large enough to
// amortize the make, small enough that a mostly-idle block does not pin
// much memory.
const i32chunk = 1 << 13

// i32arena is a bump allocator for int32 slices, used per block (each
// parallel block owns one, so take/commit need no synchronization).
type i32arena struct {
	chunks [][]int32
	ci     int // chunk the cursor is in
	pos    int // cursor within chunks[ci]
}

// take returns a zero-length slice with capacity n carved at the cursor.
// The caller appends at most n elements, then calls commit with the count
// actually kept; the un-kept tail is reused by the next take.
//
//ridt:noalloc
func (a *i32arena) take(n int) []int32 {
	for {
		if a.ci < len(a.chunks) {
			c := a.chunks[a.ci]
			if len(c)-a.pos >= n {
				return c[a.pos : a.pos : a.pos+n]
			}
			a.ci++
			a.pos = 0
			continue
		}
		size := i32chunk
		if n > size {
			size = n
		}
		//ridtvet:ignore noalloc amortized refill: a new chunk only when the cursor outruns every existing one; steady-state rounds reuse
		a.chunks = append(a.chunks, make([]int32, size))
	}
}

// commit advances the cursor past the first n elements of the last take.
//
//ridt:noalloc
func (a *i32arena) commit(n int) { a.pos += n }

// reset rewinds the cursor, keeping the chunks for reuse. The production
// round engine never resets (E lists outlive rounds); the allocation-pin
// tests and benchmarks use it to demonstrate steady-state reuse.
//
//ridt:noalloc
func (a *i32arena) reset() { a.ci, a.pos = 0, 0 }

// growSlice returns s with length n, reallocating only when the capacity
// is too small. Contents are not preserved.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// roundArena is the reusable scratch of one ParTriangulate run.
type roundArena struct {
	evalF    []fire                // dense activation output, one per candidate
	evalOK   []bool                // activation predicate flags
	fires    []fire                // packed fires of the current round
	newTris  []Tri                 // staged triangles, copied into the store
	newDepth []int32               // staged dependence depths
	preds    []geom.PredicateStats // per-block predicate counters (zeroed per round)
	dense    []uint64              // 3 face-key emission slots per fire
	keep     []bool                // emission winner flags over dense
	cand     []uint64              // double buffer for the candidate list
	counts   []int                 // PackInto block scratch
	earenas  []*i32arena           // per-block encroacher-list sub-arenas
}

func newRoundArena() *roundArena { return &roundArena{} }

// eArenas returns the first nb per-block sub-arenas, creating any missing
// ones (block counts vary round to round; arenas persist for the run).
func (ar *roundArena) eArenas(nb int) []*i32arena {
	for len(ar.earenas) < nb {
		ar.earenas = append(ar.earenas, &i32arena{})
	}
	return ar.earenas[:nb]
}
