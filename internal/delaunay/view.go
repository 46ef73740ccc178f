package delaunay

import (
	"math"
	"slices"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/hashtable"
	"repro/internal/parallel"
)

// Serve-while-building: epoch-published immutable mesh views.
//
// The round engine appends triangles and never mutates a committed one —
// a triangle's corner array and encroacher list are fixed at creation
// (Phase A), and a triangle fires only if its encroacher list is
// non-empty. So a triangle created with an empty E is part of the final
// triangulation *forever*: the per-round final-triangle sets grow
// monotonically toward exactly the set finish() extracts. That is what
// makes a consistent point-in-time view of a half-built triangulation
// cheap: a view is (committed triangle-log prefix, final-id watermark),
// both immutable once the round that produced them commits.
//
// The same invariant makes the location index append-only. The grid is
// fixed once per build (input bounding box, side from n), and the
// publisher extends a per-cell linked index with only each round's new
// finals, so publication costs O(new finals + cells) instead of a full
// re-bin. A mid-build view holds capped prefixes of the index's entries
// and wide list plus its own copy of the cell heads: immutable, with no
// atomics on the read path. The publication that completes the build
// compacts the index once into CSR form for the long-lived finished
// view.
//
// Live wraps the engine and publishes a MeshView at every committed
// round boundary (PR 7's transactional-round commit point) through a
// parallel.Epoch cell. Readers get the latest view wait-free, or block
// for a newer one; a view stays valid forever — it shares the engine's
// append-only storage, and rollback can never truncate below a committed
// boundary.

// MeshView is an immutable snapshot of a triangulation under
// construction, published at a committed round boundary. It supports
// point location and containment queries against the final region built
// so far; all query methods are safe for any number of concurrent
// readers and allocate nothing on the exact-predicate float fast path.
type MeshView struct {
	round int32
	done  bool
	pts   []geom.Point
	n     int
	tris  []Tri   // committed triangle-log prefix (shared, immutable)
	final []int32 // ids of final triangles (E empty at creation), ascending

	// This view's copy of the location index: capped prefixes of the
	// publisher's entries and wide list plus its own copy of the cell
	// heads mid-build, the compacted CSR form once done.
	locIndex
}

// Round is the committed round this view was published at (0 = the
// initial bounding triangle, before any insertions).
func (v *MeshView) Round() int32 { return v.round }

// Done reports whether construction had completed at this view: every
// input point inserted, the final set exactly finish()'s selection.
func (v *MeshView) Done() bool { return v.done }

// NumTriangles is the committed triangle-log length (alive, final, and
// ripped triangles alike): the monotone progress watermark.
func (v *MeshView) NumTriangles() int { return len(v.tris) }

// NumFinal is the number of triangles known final at this view.
func (v *MeshView) NumFinal() int { return len(v.final) }

// NumPoints is the number of input points (excluding bounding corners).
func (v *MeshView) NumPoints() int { return v.n }

// FinalID returns the i-th final triangle's id in the triangle log;
// ids are ascending in i and stable across all later views.
//
//ridt:noalloc
func (v *MeshView) FinalID(i int) int32 { return v.final[i] }

// Corners returns triangle t's corner point indices (counterclockwise).
//
//ridt:noalloc
func (v *MeshView) Corners(t int32) [3]int32 { return v.tris[t].V }

// Point returns point i's coordinates (input points then the 3 bounding
// corners).
//
//ridt:noalloc
func (v *MeshView) Point(i int32) geom.Point { return v.pts[i] }

// gridCells caps the location grid's side, which bounds the head copy
// every mid-build view takes (4 bytes per cell: 4 MB at the cap).
const gridCells = 1024

// locGrid is the location grid's geometry, fixed once per build. Its
// domain is the input bounding box: the bounding corners sit ~50 widths
// outside and would dilute the grid to uselessness. Queries and triangle
// bins clamp into it identically.
type locGrid struct {
	ox, oy     float64
	invW, invH float64 // cells per unit in x / y
	side       int32   // cells per row and per column
}

// newLocGrid fixes the grid for a build over n input points (pts holds
// them, then the 3 bounding corners). The side ⌊√(2n+1)⌋+1 puts about
// one cell under each of the 2n+1 triangles the finished mesh has.
func newLocGrid(pts []geom.Point, n int) locGrid {
	dom := pts[:n]
	if n == 0 {
		dom = pts
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range dom {
		minX, minY = min(minX, p.X), min(minY, p.Y)
		maxX, maxY = max(maxX, p.X), max(maxY, p.Y)
	}
	w, h := maxX-minX, maxY-minY
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	g := int(math.Sqrt(float64(2*n+1))) + 1
	if g > gridCells {
		g = gridCells
	}
	return locGrid{ox: minX, oy: minY, invW: float64(g) / w, invH: float64(g) / h, side: int32(g)}
}

// cellXY maps a coordinate into its (clamped) grid cell.
//
//ridt:noalloc
func (gr *locGrid) cellXY(x, y float64) (cx, cy int32) {
	cx = int32((x - gr.ox) * gr.invW)
	cy = int32((y - gr.oy) * gr.invH)
	if cx < 0 {
		cx = 0
	} else if cx >= gr.side {
		cx = gr.side - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= gr.side {
		cy = gr.side - 1
	}
	return
}

// locEntry lists final triangle tri in one cell; next is the cell's
// previous (older) entry, or -1.
type locEntry struct{ tri, next int32 }

// locIndex lists every final triangle in each cell its bounding box
// overlaps, clamped into the grid the same way queries are, so a
// triangle containing q is always listed in q's cell. Triangles spanning
// more than 2·side cells — the handful of hull triangles reaching the
// far-away bounding corners — go to the wide list, scanned on every
// query. The publisher's index is append-only: entries are written once
// and every next link points to an older entry, so a view's capped
// prefix plus its copy of the heads never sees a later append. Mid-build
// a cell's run is walked from head through ents, newest first; the
// completing publication compacts it into CSR form (cellStart, cellTris:
// ids ascending per cell).
type locIndex struct {
	locGrid
	head []int32 // per cell: newest entry, or -1
	ents []locEntry
	wide []int32

	// The CSR form, set once by compact (head and ents are dropped then).
	cellStart, cellTris []int32
}

// newLocIndex starts an empty index on the grid newLocGrid fixes.
func newLocIndex(pts []geom.Point, n int) locIndex {
	ix := locIndex{locGrid: newLocGrid(pts, n)}
	ix.head = make([]int32, int(ix.side)*int(ix.side))
	for i := range ix.head {
		ix.head[i] = -1
	}
	return ix
}

// span returns the cells triangle tv's bounding box overlaps, clamped
// into the grid, and whether that is more than 2·side cells (a wide
// triangle, listed apart).
func (gr *locGrid) span(pts []geom.Point, tv [3]int32) (cx0, cy0, cx1, cy1 int32, wide bool) {
	a, b, c := pts[tv[0]], pts[tv[1]], pts[tv[2]]
	cx0, cy0 = gr.cellXY(min(a.X, b.X, c.X), min(a.Y, b.Y, c.Y))
	cx1, cy1 = gr.cellXY(max(a.X, b.X, c.X), max(a.Y, b.Y, c.Y))
	return cx0, cy0, cx1, cy1, (cx1-cx0+1)*(cy1-cy0+1) > 2*gr.side
}

// add lists final triangle id (corners tv) in every cell it overlaps, or
// on the wide list.
func (ix *locIndex) add(pts []geom.Point, id int32, tv [3]int32) {
	cx0, cy0, cx1, cy1, wide := ix.span(pts, tv)
	if wide {
		ix.wide = append(ix.wide, id)
		return
	}
	ents, head := ix.ents, ix.head
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			cell := cy*ix.side + cx
			ents = append(ents, locEntry{tri: id, next: head[cell]})
			head[cell] = int32(len(ents) - 1)
		}
	}
	ix.ents = ents
}

// compact freezes the index into CSR form: per cell, its ids ascending,
// the layout a full re-bin produces. Entries were appended in ascending
// id order, so one walk per cell reads its run newest-first and the
// copied run is reversed in place. The finished view is read for as
// long as the mesh is served: in this form it returns, for a query on a
// shared edge or corner, the same triangle a full re-bin would, and its
// Locate avoids the linked walk, which costs 6–9% on that view
// (BenchmarkSnapshotReadLocate).
func (ix *locIndex) compact() {
	start := make([]int32, len(ix.head)+1)
	ids := make([]int32, 0, len(ix.ents))
	for c, e := range ix.head {
		lo := len(ids)
		for ; e >= 0; e = ix.ents[e].next {
			ids = append(ids, ix.ents[e].tri)
		}
		slices.Reverse(ids[lo:])
		start[c+1] = int32(len(ids))
	}
	ix.cellStart, ix.cellTris = start, ids
	ix.head, ix.ents = nil, nil
}

// buildView snapshots the committed state into an immutable view: capped
// prefixes of the triangle log, the final ids, the index entries and
// the wide list, plus a copy of the cell heads. Serial, called from the
// publisher at the committed boundary; O(cells) per publication, on top
// of collect's O(new finals) index extension. The publication that
// completes the build compacts the index once (compact) and hands the
// finished view its CSR form.
func (lv *Live) buildView() *MeshView {
	s, ix := lv.e.s, &lv.ix
	v := &MeshView{
		round:    lv.e.round,
		done:     lv.done,
		pts:      s.pts,
		n:        s.n,
		tris:     s.tris[:len(s.tris):len(s.tris)],
		final:    lv.final[:len(lv.final):len(lv.final)],
		locIndex: locIndex{locGrid: ix.locGrid, wide: ix.wide[:len(ix.wide):len(ix.wide)]},
	}
	switch {
	case len(v.final) == 0:
	case lv.done:
		if ix.cellStart == nil {
			ix.compact()
		}
		v.cellStart, v.cellTris = ix.cellStart, ix.cellTris
	default:
		v.head = append([]int32(nil), ix.head...)
		v.ents = ix.ents[:len(ix.ents):len(ix.ents)]
	}
	return v
}

// triContains reports whether q lies in triangle id (boundary inclusive;
// corners are CCW by construction). Exact and allocation-free: the float
// filter decides almost every query, geom's expansion stages decide
// degeneracies.
//
//ridt:noalloc
func (v *MeshView) triContains(id int32, q geom.Point) bool {
	tv := v.tris[id].V
	a, b, c := v.pts[tv[0]], v.pts[tv[1]], v.pts[tv[2]]
	return geom.Orient2D(a, b, q) >= 0 &&
		geom.Orient2D(b, c, q) >= 0 &&
		geom.Orient2D(c, a, q) >= 0
}

// Locate returns a final triangle containing q, or (NoTri, false) when q
// lies in a region that is still under construction at this view (or on
// no triangle at all). For q on a shared edge or corner, any one of the
// incident final triangles may be returned. A q with a NaN or infinite
// coordinate lies in no triangle: it misses before any predicate runs,
// since Orient2D answers 0 (on the edge) for NaN and its exact stages
// cannot represent an infinity. Safe for unbounded concurrent readers;
// allocation-free on the float fast path.
//
//ridt:noalloc
func (v *MeshView) Locate(q geom.Point) (int32, bool) {
	if len(v.final) == 0 || math.IsNaN(q.X) || math.IsNaN(q.Y) || math.IsInf(q.X, 0) || math.IsInf(q.Y, 0) {
		return NoTri, false
	}
	cx, cy := v.cellXY(q.X, q.Y)
	c := cy*v.side + cx
	if v.cellStart != nil {
		for _, id := range v.cellTris[v.cellStart[c]:v.cellStart[c+1]] {
			if v.triContains(id, q) {
				return id, true
			}
		}
	} else {
		for e := v.head[c]; e >= 0; e = v.ents[e].next {
			if id := v.ents[e].tri; v.triContains(id, q) {
				return id, true
			}
		}
	}
	for _, id := range v.wide {
		if v.triContains(id, q) {
			return id, true
		}
	}
	return NoTri, false
}

// Contains reports whether q lies in the finalized region of this view.
//
//ridt:noalloc
func (v *MeshView) Contains(q geom.Point) bool {
	_, ok := v.Locate(q)
	return ok
}

// Live drives a triangulation round by round while publishing an
// immutable MeshView at every committed boundary. One goroutine steps
// (the publisher); any number of goroutines read views concurrently.
type Live struct {
	e       *roundEngine
	pub     parallel.Epoch[MeshView]
	scanned int     // triangle-log prefix already scanned for finals
	final   []int32 // accumulated final ids, ascending
	ix      locIndex
	done    bool
}

// NewLive starts a live triangulation over pts (same input contract as
// ParTriangulate: pre-shuffled, deduplicated) and publishes the round-0
// view (the bare bounding triangle).
func NewLive(pts []geom.Point) *Live {
	lv := &Live{e: newRoundEngine(pts)}
	lv.ix = newLocIndex(lv.e.s.pts, lv.e.s.n)
	lv.collect()
	lv.done = len(pts) == 0
	lv.publish()
	return lv
}

// collect extends the final-id watermark and the location index over
// newly committed triangles.
func (lv *Live) collect() {
	s := lv.e.s
	for i := lv.scanned; i < len(s.tris); i++ {
		if len(s.tris[i].E) == 0 {
			lv.final = append(lv.final, int32(i))
			lv.ix.add(s.pts, int32(i), s.tris[i].V)
		}
	}
	lv.scanned = len(s.tris)
}

// publish builds and publishes the view for the current committed state.
func (lv *Live) publish() {
	lv.pub.Publish(lv.buildView())
}

// Step runs one round and publishes the resulting view; it reports
// whether more rounds remain. The token is checked once per call, at the
// committed boundary: after the lazy repair of a round a panic abandoned
// and before the next round arms. A canceled Step therefore runs no
// round, publishes nothing, leaves the engine clean at the last committed
// round (so the last published view remains exactly current), and returns
// parallel.ErrCanceled; a Step already running when the token is canceled
// completes its round, and the next Step stops. Cancel latency is one
// round. Not safe for concurrent Step calls — Live has one publisher.
//
// Under -tags ridtfault the EpochPublish site fires between the round's
// commit and its publication: an injected death there models the
// publisher dying with a committed round unpublished. The round's
// effects are durable (the engine is clean), so the next successful Step
// publishes a view covering both rounds — readers see an epoch gap,
// never an inconsistent view.
func (lv *Live) Step(c *parallel.Canceler) (bool, error) {
	lv.e.rollback()
	if c.Canceled() {
		return false, parallel.ErrCanceled
	}
	more := lv.e.step()
	if fault.Enabled {
		fault.Inject(fault.EpochPublish)
	}
	lv.collect()
	lv.done = !more
	lv.publish()
	return more, nil
}

// View returns the latest published view (never nil). Wait-free.
//
//ridt:noalloc
func (lv *Live) View() *MeshView {
	v, _ := lv.pub.Current()
	return v
}

// ViewEpoch is View plus the publication epoch, for readers that follow
// publications with Await.
//
//ridt:noalloc
func (lv *Live) ViewEpoch() (*MeshView, uint64) {
	return lv.pub.Current()
}

// Await blocks until a view newer than epoch `after` is published; see
// parallel.Epoch.Await for the cancellation contract.
func (lv *Live) Await(after uint64, c *parallel.Canceler) (*MeshView, uint64, error) {
	return lv.pub.Await(after, c)
}

// Faces opens a snapshot of the face map for adjacency queries. The
// snapshot is O(1) and stays torn-free under the publisher's concurrent
// writes (regular reads — see hashtable.Snap). Open it after taking the
// view it serves: a snapshot opened after a round's Reserve holds every
// face that round and the earlier ones wrote.
func (lv *Live) Faces() FaceSnap {
	return FaceSnap{snap: lv.e.faces.Snapshot()}
}

// Run steps to completion (publishing every round) and returns the final
// mesh. On cancellation the engine stays resumable via Step/Run.
func (lv *Live) Run(c *parallel.Canceler) (*Mesh, error) {
	for {
		more, err := lv.Step(c)
		if err != nil {
			return nil, err
		}
		if !more {
			return lv.e.s.finish(), nil
		}
	}
}

// Finish extracts the final mesh. It must only be called once a Step has
// reported no more rounds (Done on the latest view).
func (lv *Live) Finish() *Mesh {
	if !lv.done {
		panic("delaunay: Live.Finish before construction completed")
	}
	return lv.e.s.finish()
}

// FaceSnap is a read-only snapshot of the live face map: the adjacency
// side of the serving story (which up-to-two triangles share an edge).
// Values written after the snapshot may be visible (regular reads), but
// never torn ones.
type FaceSnap struct {
	snap hashtable.Snap[uint64, faceEntry]
}

// Incident returns the up-to-two triangles incident to edge (a, b), if
// the edge is a face of the current (or snapshot-time) triangulation.
// t1 == NoTri means a hull face or a face awaiting its second triangle.
//
//ridt:noalloc
func (fs FaceSnap) Incident(a, b int32) (t0, t1 int32, ok bool) {
	ent, ok := fs.snap.Load(faceKey(a, b))
	if !ok {
		return NoTri, NoTri, false
	}
	return ent.t0, ent.t1, true
}

// Len counts the faces visible to the snapshot.
func (fs FaceSnap) Len() int { return fs.snap.Len() }

// Close does nothing: a snapshot holds no resource beyond the memory the
// garbage collector reclaims once it is unreachable. It stays so callers
// that release their snapshots keep compiling.
func (fs FaceSnap) Close() {}
