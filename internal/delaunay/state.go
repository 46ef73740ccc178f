package delaunay

import (
	"fmt"

	"repro/internal/geom"
)

// Checkpoint capture and restore for a live triangulation.
//
// A BuildState is everything the round engine needs to resume insertion
// from a committed round boundary and produce the byte-identical rest of
// the run: the published view's data (points, triangle log with
// encroacher lists, final-id watermark) plus the two pieces of engine
// state that are NOT derivable from the view alone —
//
//   - the candidate face list: the fire set of a round is a pure function
//     of (face map, E lists) over the candidates, but the fire ORDER — and
//     with it every later triangle id — follows candidate order, so the
//     determinism contract requires the exact list, not a reconstruction;
//   - the face map: which up-to-two alive triangles are incident to each
//     face of the current (half-built) triangulation. Aliveness is not
//     recorded in the append-only triangle log (the log keeps ripped
//     triangles forever, by design), so the map is serialized from a face
//     table snapshot rather than recomputed.
//
// Why a committed round boundary is a sufficient restore point at all is
// the monotone-final invariant (view.go, DESIGN.md): committed triangles
// are immutable, a committed round's effects can never be rolled back, and
// the per-round final sets grow monotonically toward exactly finish()'s
// selection. The boundary state therefore IS a prefix of the one
// deterministic run — resuming from it replays the identical remainder.
//
// CaptureState must be called by the publisher between Step calls, where
// face-map mutators are quiesced. It copies only what later
// rounds mutate — the face map, the candidate list, the counters — and
// shares the append-only storage (points, triangle-log prefix, depths,
// final ids) with the engine: committed prefixes are immutable, so a
// serializer may read them from another goroutine while the build runs.

// FaceRec is one face-map entry in captured form: the packed face key and
// the entry's inline value word exactly as the lock-free table stores it
// (the two incident triangles). The word is opaque to serializers;
// ResumeLive decodes and validates it.
type FaceRec struct {
	Key uint64
	W   uint64
}

// BuildState is a resumable snapshot of a triangulation under
// construction, captured at a committed round boundary, or an increment
// of one. A complete state has a zero Base. An increment's Base is the
// watermark of an earlier boundary of the same build: it holds only the
// append-only suffix past Base (triangle log, depths, final ids) plus the
// full mutable remainder (faces, candidates, counters), and no points —
// the complete state below Base has them. Because a triangle's final
// status is fixed at creation, the two differ only by an appended suffix
// and a small remainder, so a complete state is just the increment over
// the empty prefix.
//
// The slice fields referencing engine storage (Pts, Tris, Depth, Final)
// are shared and must be treated as immutable; Faces and Cand are copies
// owned by the state.
type BuildState struct {
	Round int32
	Done  bool
	N     int          // input points (excluding the 3 bounding corners)
	Base  Watermark    // the committed prefix this state extends; zero when complete
	Pts   []geom.Point // input points then the 3 bounding corners; none past a non-zero Base
	Tris  []Tri        // committed triangle-log entries past Base.Tris
	Depth []int32      // dependence depth per entry of Tris
	Final []int32      // ids of final triangles past Base.Final, ascending
	Faces []FaceRec    // face-map snapshot at the boundary
	Cand  []uint64     // candidate faces for the next round, in order
	Stats Stats
	Pred  geom.PredicateStats
}

// CaptureState snapshots the live build for checkpointing. It must be
// called from the publisher goroutine between Step calls — the committed
// round boundary, where face-map mutators are quiesced. The capture cost
// is one sweep of the face table plus O(candidates); the shared slices
// make the rest O(1).
func (lv *Live) CaptureState() *BuildState {
	e := lv.e
	s := e.s
	st := &BuildState{
		Round: e.round,
		Done:  lv.done,
		N:     s.n,
		Pts:   s.pts[:len(s.pts):len(s.pts)],
		Tris:  s.tris[:len(s.tris):len(s.tris)],
		Depth: s.depth[:len(s.depth):len(s.depth)],
		Cand:  append([]uint64(nil), e.cand...),
		Stats: s.stats,
		Pred:  *s.pred,
	}
	// Before the first final the pre-sized list is empty but not nil; a
	// captured state keeps empty collections nil, as a decoded one does.
	if len(lv.final) > 0 {
		st.Final = lv.final[:len(lv.final):len(lv.final)]
	}
	// The claim count sizes the copy without a counting sweep: only the
	// rollback deletes faces, so it is exact or a few tombstones over.
	st.Faces = make([]FaceRec, 0, e.faces.Claimed())
	e.faces.Snapshot().Range(func(k uint64, v faceEntry) bool {
		st.Faces = append(st.Faces, FaceRec{Key: k, W: encFace(v)})
		return true
	})
	return st
}

// Watermark identifies a committed prefix of the append-only build log:
// the round it was committed at and how far the triangle log and the
// final-id list reached. Because committed storage is append-only and
// immutable, a watermark taken at one boundary remains a valid prefix
// description of every later boundary of the same build — which is what
// lets an incremental checkpoint serialize only the suffix past it.
type Watermark struct {
	Round int32
	Tris  int // committed triangle-log length
	Final int // final-id count
}

// Watermark returns the committed-prefix watermark a state reaches: its
// base plus its own log entries.
func (st *BuildState) Watermark() Watermark {
	return Watermark{Round: st.Round, Tris: st.Base.Tris + len(st.Tris), Final: st.Base.Final + len(st.Final)}
}

// DeltaSince slices the increment past since out of a complete state.
// Cost: O(1) shares for the append-only suffixes (they are sub-slices of
// st's shared storage), zero copies — the faces and candidates are
// re-shared from st, which already owns them. An encoder walking the
// result touches O(suffix + faces + candidates) data instead of the whole
// build, which is the point of an incremental checkpoint. The increment
// over the empty prefix is st itself, so since must name at least the
// bounding triangle.
func (st *BuildState) DeltaSince(since Watermark) (*BuildState, error) {
	if st.Base != (Watermark{}) {
		return nil, fmt.Errorf("delaunay: delta of an increment (base %+v)", st.Base)
	}
	if since.Round < 0 || since.Tris < 1 || since.Final < 0 {
		return nil, fmt.Errorf("delaunay: delta base watermark %+v malformed", since)
	}
	if since.Round > st.Round || since.Tris > len(st.Tris) || since.Final > len(st.Final) {
		return nil, fmt.Errorf("delaunay: delta base watermark %+v ahead of state (round %d, %d tris, %d final)",
			since, st.Round, len(st.Tris), len(st.Final))
	}
	d := &BuildState{
		Round: st.Round,
		Done:  st.Done,
		N:     st.N,
		Base:  since,
		Tris:  st.Tris[since.Tris:len(st.Tris):len(st.Tris)],
		Depth: st.Depth[since.Tris:len(st.Depth):len(st.Depth)],
		Final: st.Final[since.Final:len(st.Final):len(st.Final)],
		Faces: st.Faces,
		Cand:  st.Cand,
		Stats: st.Stats,
		Pred:  st.Pred,
	}
	return d, d.Validate()
}

// ApplyDelta joins an increment onto the complete state its Base names,
// reconstructing the later complete state. The base must match the
// increment's watermark exactly; deeper identity (is this REALLY the same
// build, not merely one of the same shape?) is the caller's to verify —
// the checkpoint restorer binds chains with prefix digests and run
// metadata before calling this. The result owns fresh concatenated log
// arrays and shares Pts with the base; neither input is mutated. When
// both inputs pass Validate, so does the result.
func ApplyDelta(base, d *BuildState) (*BuildState, error) {
	if base.Base != (Watermark{}) || d.Base == (Watermark{}) {
		return nil, fmt.Errorf("delaunay: join needs a complete base and an increment (bases %+v, %+v)", base.Base, d.Base)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if base.N != d.N {
		return nil, fmt.Errorf("delaunay: delta for n=%d applied to base with n=%d", d.N, base.N)
	}
	if got := base.Watermark(); got != d.Base {
		return nil, fmt.Errorf("delaunay: delta base watermark %+v does not match base state %+v", d.Base, got)
	}
	if base.Done && len(d.Tris) > 0 {
		return nil, fmt.Errorf("delaunay: delta extends a completed base")
	}
	st := &BuildState{
		Round: d.Round,
		Done:  d.Done,
		N:     base.N,
		Pts:   base.Pts,
		Tris:  append(base.Tris[:len(base.Tris):len(base.Tris)], d.Tris...),
		Depth: append(base.Depth[:len(base.Depth):len(base.Depth)], d.Depth...),
		Final: append(base.Final[:len(base.Final):len(base.Final)], d.Final...),
		Faces: d.Faces,
		Cand:  d.Cand,
		Stats: d.Stats,
		Pred:  d.Pred,
	}
	return st, nil
}

// Validate rejects states that cannot have come from a committed round
// boundary: every index must land in range, and every point must be
// finite, before ResumeLive builds an engine around the data (a NaN or
// infinite coordinate passes every index check and then crashes the
// first round's predicates). An increment is checked against ANY base
// matching its watermark: its indices against the log length it
// reaches, its final ids against its own suffix window, and it must
// carry no points. Cross-checks against a concrete base are ApplyDelta's
// job; deep semantic checks (is this face map really the boundary face
// map?) are the determinism suite's. Validate's is memory safety and
// fail-fast on corrupt or adversarial input that got past a decoder.
func (st *BuildState) Validate() error {
	if st.N < 0 || st.Round < 0 {
		return fmt.Errorf("delaunay: state has negative n (%d) or round (%d)", st.N, st.Round)
	}
	base := st.Base
	if base == (Watermark{}) {
		if len(st.Pts) != st.N+3 {
			return fmt.Errorf("delaunay: state has %d points, want n+3 = %d", len(st.Pts), st.N+3)
		}
		if err := checkFinite(st.Pts); err != nil {
			return err
		}
	} else {
		if len(st.Pts) != 0 {
			return fmt.Errorf("delaunay: increment carries %d points (its base holds them)", len(st.Pts))
		}
		if base.Round < 0 || base.Tris < 1 || base.Final < 0 || base.Final > base.Tris || base.Round > st.Round {
			return fmt.Errorf("delaunay: base watermark %+v malformed or ahead of round %d", base, st.Round)
		}
	}
	nt := base.Tris + len(st.Tris)
	if nt < 1 {
		return fmt.Errorf("delaunay: state has no triangles (the bounding triangle always exists)")
	}
	if len(st.Depth) != len(st.Tris) {
		return fmt.Errorf("delaunay: %d depths for %d triangles", len(st.Depth), len(st.Tris))
	}
	npts := int32(st.N + 3)
	for i, t := range st.Tris {
		for _, v := range t.V {
			if v < 0 || v >= npts {
				return fmt.Errorf("delaunay: triangle %d corner %d out of range [0,%d)", base.Tris+i, v, npts)
			}
		}
		prev := int32(-1)
		for _, w := range t.E {
			if w <= prev || int(w) >= st.N {
				return fmt.Errorf("delaunay: triangle %d has non-ascending or out-of-range encroacher %d", base.Tris+i, w)
			}
			prev = w
		}
	}
	// A triangle's final status is fixed at creation (E empty at creation,
	// final forever — the monotone-final invariant), so every final id
	// discovered past the base names a triangle past it too.
	prev := base.Tris - 1
	for _, id := range st.Final {
		if int(id) <= prev || int(id) >= nt {
			return fmt.Errorf("delaunay: final id %d non-ascending or outside [%d,%d)", id, base.Tris, nt)
		}
		if len(st.Tris[int(id)-base.Tris].E) != 0 {
			return fmt.Errorf("delaunay: final triangle %d has a non-empty encroacher list", id)
		}
		prev = int(id)
	}
	for _, f := range st.Faces {
		a, b := faceEnds(f.Key)
		if a < 0 || b < 0 || a >= npts || b >= npts || a > b {
			return fmt.Errorf("delaunay: face key %#x has bad endpoints (%d, %d)", f.Key, a, b)
		}
		ent := decFace(f.W)
		if ent.t0 < 0 || int(ent.t0) >= nt {
			return fmt.Errorf("delaunay: face %#x references triangle %d out of range", f.Key, ent.t0)
		}
		if ent.t1 != NoTri && (ent.t1 < 0 || int(ent.t1) >= nt) {
			return fmt.Errorf("delaunay: face %#x references triangle %d out of range", f.Key, ent.t1)
		}
	}
	for _, k := range st.Cand {
		a, b := faceEnds(k)
		if a < 0 || b < 0 || a >= npts || b >= npts || a > b {
			return fmt.Errorf("delaunay: candidate key %#x has bad endpoints (%d, %d)", k, a, b)
		}
	}
	return nil
}

// ResumeLive reconstructs a live triangulation from a captured (or
// decoded) state and publishes the restored view. The resumed build steps
// from the checkpointed round and — by the determinism contract — emits
// exactly the triangles the uninterrupted run would have, so the final
// mesh is identical. The restored publication cell continues the
// pre-crash epoch numbering (parallel.Epoch.PublishAt). The face map is
// sized for the larger of the build's pre-size and the restored faces, so
// a state captured after the map grew restores without a claim past its
// limit.
//
// ResumeLive copies the state's mutable containers (the triangle log,
// depths, candidates, final ids) into engine-owned storage; Pts and the
// per-triangle E arrays are shared with the state, which must not mutate
// them afterward (a decoded state never does; a captured one is immutable
// by construction).
func ResumeLive(st *BuildState) (*Live, error) {
	if st.Base != (Watermark{}) {
		return nil, fmt.Errorf("delaunay: cannot resume from an increment (base %+v); join it onto its base first", st.Base)
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	s := &store{pts: st.Pts, n: st.N, pred: &geom.PredicateStats{}}
	s.stats = st.Stats
	*s.pred = st.Pred
	resCap := max(logCap(s.n), len(st.Tris))
	s.tris = append(make([]Tri, 0, resCap), st.Tris...)
	s.depth = append(make([]int32, 0, resCap), st.Depth...)

	faces := newFaceMap(st.N, len(st.Faces))
	for _, f := range st.Faces {
		faces.Store(f.Key, decFace(f.W))
	}

	e := &roundEngine{
		s:     s,
		faces: faces,
		ar:    newRoundArena(),
		cand:  append([]uint64(nil), st.Cand...),
		round: st.Round,
	}
	lv := &Live{
		e:       e,
		scanned: len(s.tris),
		final:   append(make([]int32, 0, max(finalCount(s.n), len(st.Final))), st.Final...),
		ix:      newLocIndex(s.pts, s.n),
		done:    st.Done,
	}
	// One pass over the restored finals, in the order the uninterrupted
	// run appended them, rebuilds the index that run holds at this round.
	for _, id := range lv.final {
		lv.ix.add(s.pts, id, s.tris[id].V)
	}
	lv.pub.PublishAt(lv.buildView(), uint64(e.round)+1)
	return lv, nil
}
