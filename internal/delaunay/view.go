package delaunay

import (
	"math"

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
// Live wraps the engine and publishes a MeshView at every committed
// round boundary (PR 7's transactional-round commit point) through a
// parallel.Epoch cell. Readers get the latest view wait-free, or block
// for a newer one; a view stays valid forever — it shares the engine's
// append-only storage, and rollback can never truncate below a committed
// boundary. The face map's table epoch is advanced at the same boundary,
// so open table snapshots and mesh views retire in lockstep.

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

	// Location grid over the final triangles: the input bounding box is
	// binned into ~len(final) cells; each final triangle is listed in
	// every cell its own bounding box overlaps (clamped into the grid the
	// same way queries are, so a triangle containing q is always listed
	// in q's cell). Triangles spanning more than wideSpan cells — the
	// handful of hull triangles reaching the far-away bounding corners —
	// go to the wide list, scanned on every query.
	ox, oy     float64
	invW, invH float64 // cells per unit in x / y
	gw, gh     int
	cellStart  []int32
	cellTris   []int32
	wide       []int32
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

// gridCells caps the location grid's side so a huge view cannot make the
// per-publication rebuild quadratic in memory.
const gridCells = 1024

// buildView snapshots the store into an immutable view. Serial, called
// from the publisher at the committed boundary; cost O(final + cells)
// per publication (the honest total over a run is O(n) per round — see
// DESIGN.md for why a rebuilt grid was chosen over shared mutable
// indices).
func buildView(s *store, round int32, final []int32, done bool) *MeshView {
	v := &MeshView{
		round: round,
		done:  done,
		pts:   s.pts,
		n:     s.n,
		tris:  s.tris[:len(s.tris):len(s.tris)],
		final: final[:len(final):len(final)],
	}
	nf := len(v.final)
	if nf == 0 {
		return v
	}
	// Domain: the input bounding box (the bounding corners sit ~50 widths
	// outside and would dilute the grid to uselessness). Queries and
	// triangle bins clamp into it identically.
	dom := v.pts[:v.n]
	if v.n == 0 {
		dom = v.pts
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range dom {
		minX, minY = math.Min(minX, p.X), math.Min(minY, p.Y)
		maxX, maxY = math.Max(maxX, p.X), math.Max(maxY, p.Y)
	}
	w, h := maxX-minX, maxY-minY
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	g := int(math.Sqrt(float64(nf))) + 1
	if g > gridCells {
		g = gridCells
	}
	v.gw, v.gh = g, g
	v.ox, v.oy = minX, minY
	v.invW = float64(g) / w
	v.invH = float64(g) / h

	// CSR build: count per cell, prefix-sum, fill.
	wideSpan := int32(v.gw + v.gh)
	counts := make([]int32, v.gw*v.gh+1)
	spanOf := func(id int32) (cx0, cx1, cy0, cy1 int32, wide bool) {
		tv := v.tris[id].V
		a, b, c := v.pts[tv[0]], v.pts[tv[1]], v.pts[tv[2]]
		bx0, bx1 := math.Min(a.X, math.Min(b.X, c.X)), math.Max(a.X, math.Max(b.X, c.X))
		by0, by1 := math.Min(a.Y, math.Min(b.Y, c.Y)), math.Max(a.Y, math.Max(b.Y, c.Y))
		cx0, cy0 = v.cellXY(bx0, by0)
		cx1, cy1 = v.cellXY(bx1, by1)
		wide = (cx1-cx0+1)*(cy1-cy0+1) > wideSpan
		return
	}
	for _, id := range v.final {
		cx0, cx1, cy0, cy1, wide := spanOf(id)
		if wide {
			v.wide = append(v.wide, id)
			continue
		}
		for cy := cy0; cy <= cy1; cy++ {
			for cx := cx0; cx <= cx1; cx++ {
				counts[cy*int32(v.gw)+cx+1]++
			}
		}
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	v.cellStart = counts
	v.cellTris = make([]int32, counts[len(counts)-1])
	next := make([]int32, v.gw*v.gh)
	copy(next, counts[:len(counts)-1])
	for _, id := range v.final {
		cx0, cx1, cy0, cy1, wide := spanOf(id)
		if wide {
			continue
		}
		for cy := cy0; cy <= cy1; cy++ {
			for cx := cx0; cx <= cx1; cx++ {
				c := cy*int32(v.gw) + cx
				v.cellTris[next[c]] = id
				next[c]++
			}
		}
	}
	return v
}

// cellXY maps a coordinate into its (clamped) grid cell.
//
//ridt:noalloc
func (v *MeshView) cellXY(x, y float64) (cx, cy int32) {
	cx = int32((x - v.ox) * v.invW)
	cy = int32((y - v.oy) * v.invH)
	if cx < 0 {
		cx = 0
	} else if cx >= int32(v.gw) {
		cx = int32(v.gw) - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= int32(v.gh) {
		cy = int32(v.gh) - 1
	}
	return
}

// triContains reports whether q lies in triangle id (boundary inclusive;
// corners are CCW by construction). Exact: the float fast path decides
// almost every query with no allocation, the big-rational fallback
// decides degeneracies.
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
// incident final triangles may be returned. Safe for unbounded
// concurrent readers; allocation-free on the float fast path.
//
//ridt:noalloc
func (v *MeshView) Locate(q geom.Point) (int32, bool) {
	if len(v.final) == 0 {
		return NoTri, false
	}
	if v.gw > 0 {
		cx, cy := v.cellXY(q.X, q.Y)
		c := cy*int32(v.gw) + cx
		for _, id := range v.cellTris[v.cellStart[c]:v.cellStart[c+1]] {
			if v.triContains(id, q) {
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
	done    bool
}

// NewLive starts a live triangulation over pts (same input contract as
// ParTriangulate: pre-shuffled, deduplicated) and publishes the round-0
// view (the bare bounding triangle).
func NewLive(pts []geom.Point) *Live {
	lv := &Live{e: newRoundEngine(pts)}
	lv.collect()
	lv.done = len(pts) == 0
	lv.publish()
	return lv
}

// collect extends the final-id watermark over newly committed triangles.
func (lv *Live) collect() {
	s := lv.e.s
	for i := lv.scanned; i < len(s.tris); i++ {
		if len(s.tris[i].E) == 0 {
			lv.final = append(lv.final, int32(i))
		}
	}
	lv.scanned = len(s.tris)
}

// publish builds and publishes the view for the current committed state.
func (lv *Live) publish() {
	lv.pub.Publish(buildView(lv.e.s, lv.e.round, lv.final, lv.done))
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
	// Advance the face map's table epoch at the same boundary: mutators
	// are quiesced here (the phase contract), the root is flattened, and
	// superseded slot arrays no snapshot pins are reclaimed.
	lv.e.faces.AdvanceEpoch()
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

// Faces opens a snapshot of the face map for adjacency queries; Close it
// when done. The snapshot is O(1) and stays torn-free under the
// publisher's concurrent writes (regular reads — see hashtable.Snap).
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

// Epoch is the face-map table epoch the snapshot was taken at; it
// matches the publication round when taken at a boundary.
func (fs FaceSnap) Epoch() uint64 { return fs.snap.Epoch() }

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

// Close releases the snapshot's pin on retired face-map tables.
func (fs FaceSnap) Close() { fs.snap.Close() }
