package delaunay

// Tests for the serve-while-building layer (view.go): published views
// against the finished mesh, Locate against brute force, held views that
// answer the same after later rounds appended to the index, the
// compacted index against a full re-bin, the monotone final-set
// argument, the linearizable-snapshot stress (every view a concurrent
// reader observes equals a committed-round prefix of a deterministic
// reference run), the face-map serving snapshot, and the zero-alloc
// query pins. The stress tests run under -race in CI.

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// viewRow is one committed round of a reference run: what every
// concurrently observed view of the same input must match exactly.
type viewRow struct {
	tris   int    // committed triangle-log length
	nFinal int    // final-set watermark
	sum    uint64 // order-sensitive checksum of the final ids
}

func finalSum(v *MeshView) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < v.NumFinal(); i++ {
		h = (h ^ uint64(uint32(v.FinalID(i)))) * 1099511628211
	}
	return h
}

// locAns is one Locate answer.
type locAns struct {
	id int32
	ok bool
}

// viewQueries draws m query points over the unit square widened by 10%
// on every side, so some land outside the input box.
func viewQueries(seed uint64, m int) []geom.Point {
	r := rng.New(seed)
	qs := make([]geom.Point, m)
	for i := range qs {
		qs[i] = geom.Point{X: r.Float64()*1.2 - 0.1, Y: r.Float64()*1.2 - 0.1}
	}
	return qs
}

func locateAll(v *MeshView, qs []geom.Point) []locAns {
	ans := make([]locAns, len(qs))
	for i, q := range qs {
		ans[i].id, ans[i].ok = v.Locate(q)
	}
	return ans
}

// checkLocatePrefix holds a view's answers to its own final prefix: a hit
// names a committed triangle in that prefix which contains the query, and
// ok agrees with a brute-force scan of the prefix.
func checkLocatePrefix(t *testing.T, v *MeshView, qs []geom.Point, ans []locAns) {
	t.Helper()
	inPrefix := make(map[int32]bool, v.NumFinal())
	for i := 0; i < v.NumFinal(); i++ {
		inPrefix[v.FinalID(i)] = true
	}
	for i, q := range qs {
		a := ans[i]
		if a.ok {
			if int(a.id) >= v.NumTriangles() || !inPrefix[a.id] {
				t.Fatalf("round %d: Locate(%v) = %d, outside the view's final prefix", v.Round(), q, a.id)
			}
			if !v.triContains(a.id, q) {
				t.Fatalf("round %d: Locate(%v) returned triangle %d not containing it", v.Round(), q, a.id)
			}
		} else if a.id != NoTri {
			t.Fatalf("round %d: Locate(%v) missed but returned id %d", v.Round(), q, a.id)
		}
		brute := false
		for j := 0; j < v.NumFinal() && !brute; j++ {
			brute = v.triContains(v.FinalID(j), q)
		}
		if a.ok != brute {
			t.Fatalf("round %d: Locate(%v) = %v, brute force = %v", v.Round(), q, a.ok, brute)
		}
	}
}

// referenceRun drives a Live sequentially and records every committed
// round. The engine is deterministic (log order included — the
// cancellation suite compares meshes index by index), so these rows are
// THE committed-prefix sequence for this input.
func referenceRun(t *testing.T, pts []geom.Point) map[int32]viewRow {
	t.Helper()
	lv := NewLive(pts)
	rows := make(map[int32]viewRow)
	record := func() {
		v := lv.View()
		rows[v.Round()] = viewRow{tris: v.NumTriangles(), nFinal: v.NumFinal(), sum: finalSum(v)}
	}
	record()
	for {
		more, err := lv.Step(nil)
		if err != nil {
			t.Fatalf("reference Step: %v", err)
		}
		record()
		if !more {
			return rows
		}
	}
}

// TestLiveRunMatchesParTriangulate: serving changes nothing about the
// result — Live.Run publishes every round and still produces the exact
// deterministic mesh, and the last view's final set is that mesh.
func TestLiveRunMatchesParTriangulate(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(99), 1500))
	want := ParTriangulate(pts)
	lv := NewLive(pts)
	got, err := lv.Run(nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	meshEqual(t, "live run", got, want)
	v := lv.View()
	if !v.Done() {
		t.Fatal("last view not Done after Run")
	}
	if v.NumFinal() != len(want.Triangles) {
		t.Fatalf("last view has %d final triangles, mesh has %d", v.NumFinal(), len(want.Triangles))
	}
	for i := 0; i < v.NumFinal(); i++ {
		if v.Corners(v.FinalID(i)) != want.Triangles[i].V {
			t.Fatalf("final triangle %d corners diverge from finish()", i)
		}
	}
	fin := lv.Finish()
	meshEqual(t, "Finish after Run", fin, want)
}

// TestLiveViewsMonotone pins the growth argument stepwise: round, log
// length, and final count never decrease; every earlier view's final
// prefix survives verbatim in every later view; Done exactly once at
// the end.
func TestLiveViewsMonotone(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(5), 1000))
	lv := NewLive(pts)
	prev := lv.View()
	var prevEpoch uint64
	if _, e := lv.ViewEpoch(); e != 1 {
		t.Fatalf("initial publication epoch = %d, want 1", e)
	}
	for {
		more, err := lv.Step(nil)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		v, ep := lv.ViewEpoch()
		if ep <= prevEpoch && prevEpoch != 0 {
			t.Fatalf("epoch went %d -> %d", prevEpoch, ep)
		}
		prevEpoch = ep
		// Each committed round bumps the counter; the final step — an
		// empty activation that only flips Done — republishes at the
		// same round.
		if v.Round() != prev.Round()+1 && !(v.Round() == prev.Round() && !more) {
			t.Fatalf("round went %d -> %d (more=%v)", prev.Round(), v.Round(), more)
		}
		if v.NumTriangles() < prev.NumTriangles() || v.NumFinal() < prev.NumFinal() {
			t.Fatal("view shrank")
		}
		for i := 0; i < prev.NumFinal(); i++ {
			if v.FinalID(i) != prev.FinalID(i) {
				t.Fatalf("final id %d changed across rounds: %d -> %d", i, prev.FinalID(i), v.FinalID(i))
			}
		}
		if v.Done() != !more {
			t.Fatalf("Done = %v with more = %v", v.Done(), more)
		}
		prev = v
		if !more {
			return
		}
	}
}

// TestViewLocateBruteForce cross-checks the location grid against a
// linear scan of the final set, on mid-build views and the completed
// one: Locate finds a containing final triangle exactly when one exists,
// and the triangle it returns does contain the query.
func TestViewLocateBruteForce(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(12), 900))
	lv := NewLive(pts)
	for {
		more, err := lv.Step(nil)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if v := lv.View(); v.Round()%7 == 0 || !more {
			qs := viewQueries(77+uint64(v.Round()), 300)
			checkLocatePrefix(t, v, qs, locateAll(v, qs))
		}
		if !more {
			break
		}
	}
	// Completed view: every input point must locate (it is a corner of
	// some final triangle), and far-outside points must not.
	v := lv.View()
	for i := 0; i < v.NumPoints(); i += 13 {
		if !v.Contains(v.Point(int32(i))) {
			t.Fatalf("input point %d not contained in completed view", i)
		}
	}
	if v.Contains(geom.Point{X: 1e6, Y: 1e6}) {
		t.Fatal("point far outside the hull located in a final triangle")
	}
}

// TestViewLocateNonFinite: a query with a NaN or infinite coordinate
// lies in no triangle, on a mid-build view and on the finished one.
// Orient2D answers 0 (on the edge) for NaN, and the exact stages cannot
// hold an infinity, so Locate must turn these away before any predicate.
func TestViewLocateNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	qs := []geom.Point{
		{X: nan, Y: 0.5}, {X: 0.5, Y: nan},
		{X: inf, Y: 0.5}, {X: -inf, Y: 0.5}, {X: 0.5, Y: inf}, {X: 0.5, Y: -inf},
		{X: nan, Y: nan}, {X: inf, Y: -inf}, {X: nan, Y: inf},
	}
	check := func(v *MeshView) {
		t.Helper()
		for _, q := range qs {
			if id, ok := v.Locate(q); ok || id != NoTri {
				t.Fatalf("round %d (done %v): Locate(%v) = (%d, %v), want a miss", v.Round(), v.Done(), q, id, ok)
			}
			if v.Contains(q) {
				t.Fatalf("round %d: Contains(%v) = true", v.Round(), q)
			}
		}
	}
	lv := NewLive(geom.Dedup(geom.UniformSquare(rng.New(5), 200)))
	midChecked := false
	for {
		more, err := lv.Step(nil)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if v := lv.View(); more && !midChecked && v.NumFinal() > 0 {
			check(v)
			midChecked = true
		}
		if !more {
			break
		}
	}
	if !midChecked {
		t.Fatal("no mid-build view with final triangles")
	}
	check(lv.View())
}

// TestViewStaleAfterLaterRounds: a view answers the same forever. Every
// published view of a build is held with its Locate answers on a fixed
// query set; once the build has finished — its index appended to by every
// later round and compacted by the last publication — each held view must
// answer identically, within its own final prefix, and agree with brute
// force over that prefix.
func TestViewStaleAfterLaterRounds(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(31), 1500))
	qs := viewQueries(5, 150)
	lv := NewLive(pts)
	var views []*MeshView
	var answers [][]locAns
	for {
		v := lv.View()
		views = append(views, v)
		answers = append(answers, locateAll(v, qs))
		if v.Done() {
			break
		}
		if _, err := lv.Step(nil); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	if len(views) < 10 {
		t.Fatalf("only %d views published", len(views))
	}
	for i, v := range views {
		got := locateAll(v, qs)
		for k := range qs {
			if got[k] != answers[i][k] {
				t.Fatalf("round %d: Locate(%v) = %+v after the build finished, %+v when published",
					v.Round(), qs[k], got[k], answers[i][k])
			}
		}
		checkLocatePrefix(t, v, qs, got)
	}
}

// TestViewStaleAfterLaterRoundsConcurrent is the same property under
// -race: readers re-query views held from earlier rounds while the
// publisher appends to the index those views share a prefix of.
func TestViewStaleAfterLaterRoundsConcurrent(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 800
	}
	pts := geom.Dedup(geom.UniformSquare(rng.New(47), n))
	qs := viewQueries(6, 64)
	lv := NewLive(pts)
	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := make(chan string, 1)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			var views []*MeshView
			var answers [][]locAns
			for !stop.Load() {
				if v := lv.View(); len(views) == 0 || views[len(views)-1] != v {
					views = append(views, v)
					answers = append(answers, locateAll(v, qs))
				}
				k := r.Intn(len(views))
				for i, a := range locateAll(views[k], qs) {
					if a != answers[k][i] {
						select {
						case fail <- "a held view changed its answer while the publisher appended":
						default:
						}
						return
					}
				}
			}
		}(uint64(g)*17 + 3)
	}
	for {
		more, err := lv.Step(nil)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if !more {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}

// TestCompactMatchesRebin: the completed view's compacted index is the
// CSR grid a full re-bin of the final set builds — per cell the ids in
// ascending order, and the same wide list — so the finished view
// answers exactly as one binned from scratch.
func TestCompactMatchesRebin(t *testing.T) {
	pts := geom.Dedup(geom.UniformDisk(rng.New(17), 3000))
	lv := NewLive(pts)
	if _, err := lv.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	v := lv.View()
	cells := make([][]int32, v.side*v.side)
	var wide []int32
	for i := 0; i < v.NumFinal(); i++ {
		id := v.FinalID(i)
		cx0, cy0, cx1, cy1, isWide := v.span(v.pts, v.Corners(id))
		if isWide {
			wide = append(wide, id)
			continue
		}
		for cy := cy0; cy <= cy1; cy++ {
			for cx := cx0; cx <= cx1; cx++ {
				cells[cy*v.side+cx] = append(cells[cy*v.side+cx], id)
			}
		}
	}
	if v.head != nil || len(v.cellStart) != len(cells)+1 {
		t.Fatalf("completed view not compacted: head %v, %d offsets for %d cells", v.head != nil, len(v.cellStart), len(cells))
	}
	for c, want := range cells {
		got := v.cellTris[v.cellStart[c]:v.cellStart[c+1]]
		if !slices.Equal(got, want) {
			t.Fatalf("cell %d lists %v, re-bin %v", c, got, want)
		}
	}
	if !slices.Equal(v.wide, wide) {
		t.Fatalf("wide list %v, re-bin %v", v.wide, wide)
	}
}

// TestLiveConcurrentReaders is the mesh half of the linearizable-
// snapshot stress: readers hammer views (and face-map snapshots) while
// the publisher builds, asserting every observed view is byte-for-byte
// one of the reference run's committed-round prefixes and that epochs
// and rounds only move forward per reader. Run under -race in CI.
func TestLiveConcurrentReaders(t *testing.T) {
	n := 2500
	if testing.Short() {
		n = 800
	}
	pts := geom.Dedup(geom.UniformSquare(rng.New(21), n))
	rows := referenceRun(t, pts)

	lv := NewLive(pts)
	p := runtime.GOMAXPROCS(0)
	if p < 4 {
		p = 4
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := make(chan string, 1)
	report := func(msg string) {
		select {
		case fail <- msg:
		default:
		}
	}
	for g := 0; g < p; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			var lastEp uint64
			var lastRound int32 = -1
			for !stop.Load() {
				v, ep := lv.ViewEpoch()
				if ep < lastEp || (ep == lastEp && v.Round() != lastRound && lastRound != -1) {
					report("publication went backwards")
					return
				}
				lastEp = ep
				if v.Round() < lastRound {
					report("round went backwards")
					return
				}
				lastRound = v.Round()
				row, ok := rows[v.Round()]
				if !ok {
					report("observed a round the reference run never committed")
					return
				}
				if v.NumTriangles() != row.tris || v.NumFinal() != row.nFinal || finalSum(v) != row.sum {
					report("observed view diverges from the committed reference prefix")
					return
				}
				// Query load: locations must stay self-consistent, and the
				// face map must know every committed triangle's edges.
				fs := lv.Faces()
				for i := 0; i < 32; i++ {
					q := geom.Point{X: r.Float64(), Y: r.Float64()}
					if id, ok := v.Locate(q); ok {
						if !v.triContains(id, q) {
							report("Locate returned a non-containing triangle")
							fs.Close()
							return
						}
						c := v.Corners(id)
						if _, _, ok := fs.Incident(c[0], c[1]); !ok {
							report("final triangle edge missing from face snapshot")
							fs.Close()
							return
						}
					}
				}
				fs.Close()
			}
		}(uint64(g)*131 + 7)
	}
	for {
		more, err := lv.Step(nil)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if !more {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}

// TestLiveAwaitFollowsRounds: a reader chaining Await sees a strictly
// increasing epoch sequence ending at the Done view, and cancellation
// unblocks a stuck Await.
func TestLiveAwaitFollowsRounds(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(3), 600))
	lv := NewLive(pts)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last uint64
		for {
			v, ep, err := lv.Await(last, nil)
			if err != nil {
				t.Errorf("Await: %v", err)
				return
			}
			if ep <= last {
				t.Errorf("Await epoch went %d -> %d", last, ep)
				return
			}
			last = ep
			if v.Done() {
				return
			}
		}
	}()
	for {
		more, err := lv.Step(nil)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if !more {
			break
		}
	}
	<-done

	var c parallel.Canceler
	errc := make(chan error, 1)
	go func() {
		_, _, err := lv.Await(1<<60, &c) // no such epoch: blocks until canceled
		errc <- err
	}()
	c.Cancel()
	if err := <-errc; err == nil {
		t.Fatal("Await ignored cancellation")
	}
}

// TestLiveEdgeCases: empty and single-point inputs publish immediately
// final views; Locate on degenerate domains agrees with brute force;
// canceled Steps keep the last view current.
func TestLiveEdgeCases(t *testing.T) {
	lv := NewLive(nil)
	v := lv.View()
	if !v.Done() || v.NumFinal() != 1 || v.Round() != 0 {
		t.Fatalf("empty input view: done=%v final=%d round=%d", v.Done(), v.NumFinal(), v.Round())
	}
	if m := lv.Finish(); len(m.Triangles) != 1 {
		t.Fatalf("empty input mesh has %d triangles", len(m.Triangles))
	}

	lv = NewLive([]geom.Point{{X: 0.5, Y: 0.5}})
	if _, err := lv.Run(nil); err != nil {
		t.Fatalf("single-point Run: %v", err)
	}
	if v := lv.View(); !v.Done() || v.NumFinal() != 3 {
		t.Fatalf("single-point final view: done=%v final=%d", v.Done(), v.NumFinal())
	}

	// Degenerate domains: every view of tiny and all-collinear builds
	// answers as brute force does, on queries near the input and far
	// outside its box. Collinear input has a zero-height box, so the grid
	// falls back to a unit cell height.
	collinear := make([]geom.Point, 40)
	for i := range collinear {
		collinear[i] = geom.Point{X: float64((i*17)%40) / 40, Y: 0.25}
	}
	qs := viewQueries(12, 60)
	for _, q := range []geom.Point{{X: 0.5, Y: 0.5}, {X: 0.25, Y: 0.25}, {X: 0.3, Y: 0.7}, {X: 0.7, Y: 0.25}} {
		qs = append(qs, q)
	}
	for _, d := range []float64{-1e6, -50, 50, 1e6} {
		qs = append(qs, geom.Point{X: d, Y: 0.5}, geom.Point{X: 0.5, Y: d}, geom.Point{X: d, Y: -d})
	}
	for name, pts := range map[string][]geom.Point{
		"n=0":       nil,
		"n=1":       {{X: 0.5, Y: 0.5}},
		"n=2":       {{X: 0.3, Y: 0.7}, {X: 0.7, Y: 0.25}},
		"collinear": collinear,
	} {
		lv := NewLive(pts)
		for {
			v := lv.View()
			checkLocatePrefix(t, v, qs, locateAll(v, qs))
			for i := 0; i < v.NumPoints() && v.Done(); i++ {
				if !v.Contains(v.Point(int32(i))) {
					t.Fatalf("%s: input point %d not contained in the completed view", name, i)
				}
			}
			if v.Done() {
				break
			}
			if _, err := lv.Step(nil); err != nil {
				t.Fatalf("%s: Step: %v", name, err)
			}
		}
		if err := CheckConsistency(lv.Finish()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	// Cancellation: an already-canceled token fails the Step, and the
	// previously published view stays exactly current.
	lv = NewLive(geom.Dedup(geom.UniformSquare(rng.New(8), 200)))
	var c parallel.Canceler
	c.Cancel()
	before, beforeEp := lv.ViewEpoch()
	if _, err := lv.Step(&c); err == nil {
		t.Fatal("canceled Step returned nil error")
	}
	after, afterEp := lv.ViewEpoch()
	if after != before || afterEp != beforeEp {
		t.Fatal("canceled Step changed the published view")
	}
	// The engine stays resumable: finish the build with a live token.
	if _, err := lv.Run(nil); err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	if !lv.View().Done() {
		t.Fatal("resumed run did not complete")
	}
}

// TestFaceSnapServing: the face snapshot knows every committed
// triangle's edges, reports hull faces with one side open, and survives
// (torn-free) across the build; Len behaves.
func TestFaceSnapServing(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(44), 700))
	lv := NewLive(pts)
	if _, err := lv.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	v := lv.View()
	fs := lv.Faces()
	defer fs.Close()
	if fs.Len() == 0 {
		t.Fatal("face snapshot empty after build")
	}
	for i := 0; i < v.NumFinal(); i++ {
		c := v.Corners(v.FinalID(i))
		for e := 0; e < 3; e++ {
			t0, _, ok := fs.Incident(c[e], c[(e+1)%3])
			if !ok {
				t.Fatalf("edge (%d,%d) of final triangle missing from face map", c[e], c[(e+1)%3])
			}
			if t0 == NoTri {
				t.Fatalf("edge (%d,%d) has no primary triangle", c[e], c[(e+1)%3])
			}
		}
	}
	if _, _, ok := fs.Incident(0, 0); ok {
		t.Fatal("degenerate edge (0,0) reported present")
	}
}

// TestViewQueryAllocs pins the zero-alloc serve path: Locate, Contains,
// Corners, and FaceSnap.Incident allocate nothing on the float fast
// path (ridtvet pins the same statically via //ridt:noalloc).
func TestViewQueryAllocs(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(61), 1200))
	lv := NewLive(pts)
	if _, err := lv.Run(nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	v := lv.View()
	fs := lv.Faces()
	defer fs.Close()
	r := rng.New(9)
	qs := make([]geom.Point, 64)
	for i := range qs {
		qs[i] = geom.Point{X: r.Float64(), Y: r.Float64()}
	}
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		q := qs[i%len(qs)]
		i++
		if id, ok := v.Locate(q); ok {
			c := v.Corners(id)
			_, _, _ = fs.Incident(c[0], c[1])
		}
		_ = lv.View()
	}); avg != 0 {
		t.Fatalf("serve-path queries allocate %.2f per op, want 0", avg)
	}
}
