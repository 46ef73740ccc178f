package delaunay

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// segmentApproach returns n/2 points on the segment [0, 1] of the x-axis,
// then n/2 points that approach its midpoint from y = -1e8, each 0.995x
// closer than the last. Every approaching point lies in the circumcircle
// of every triangle the previous one formed with the segment, so each
// insertion conflicts with the whole segment: rounds = n, and the face
// map ends far past the 8n+16 pre-size.
func segmentApproach(n int) []geom.Point {
	h := n / 2
	pts := make([]geom.Point, 0, n)
	for i := 0; i < h; i++ {
		pts = append(pts, geom.Point{X: float64(i) / float64(h-1)})
	}
	y := -1e8
	for i := h; i < n; i++ {
		pts = append(pts, geom.Point{X: 0.5, Y: y})
		y *= 0.995
	}
	return pts
}

// presizedLimit is the claim limit of the face map a build over n points
// starts with: 3/4 of the slots of its 8n+16 pre-size.
func presizedLimit(n int) int {
	slots := 8
	for slots < (8*n+16)*4/3+1 {
		slots *= 2
	}
	return slots * 3 / 4
}

// TestFaceMapGrowsBetweenRounds drives a build whose face map must grow
// several times past its pre-size, through the per-round Reserve, while
// readers query views and face snapshots. ParTriangulate, Live and
// Triangulate must give the identical mesh, and a state captured past the
// pre-sized limit must resume to it.
func TestFaceMapGrowsBetweenRounds(t *testing.T) {
	n := 600
	if testing.Short() {
		n = 200 // still ends at more than 3x the pre-sized limit
	}
	pts := segmentApproach(n)
	limit := presizedLimit(n)
	want := ParTriangulate(pts)
	if want.Stats.Rounds != n {
		t.Fatalf("rounds = %d, want %d: the input no longer chains every insertion", want.Stats.Rounds, n)
	}

	lv := NewLive(pts)
	p := runtime.GOMAXPROCS(0)
	if p < 2 {
		p = 2
	}
	var stop atomic.Bool
	var hits atomic.Int64
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
			for !stop.Load() {
				v := lv.View()
				q := geom.Point{X: r.Float64(), Y: -1e8 * r.Float64() * r.Float64()}
				id, ok := v.Locate(q)
				if !ok {
					continue
				}
				hits.Add(1)
				fs := lv.Faces()
				c := v.Corners(id)
				t0, t1, ok := fs.Incident(c[0], c[1])
				if !ok || (t0 != id && t1 != id) {
					report("a located triangle is missing from its own edge in the face snapshot")
					return
				}
			}
		}(uint64(g)*97 + 3)
	}

	var st *BuildState
	for {
		more, err := lv.Step(nil)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		// Faces = triangles created + 2 (no round here rolls back), so the
		// first boundary past the limit is read off the counter, and the
		// captured face list confirms it.
		if st == nil && more && lv.e.s.stats.TrianglesCreated+2 > int64(limit) {
			st = lv.CaptureState()
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
	t.Logf("n=%d: %d faces against a pre-sized limit of %d; readers hit %d times",
		n, lv.Faces().Len(), limit, hits.Load())
	if got := lv.Faces().Len(); got <= limit {
		t.Fatalf("face map ends with %d faces, within the pre-sized limit %d: nothing grew", got, limit)
	}
	live := lv.Finish()
	meshEqual(t, "Live over a growing face map", live, want)
	seq := Triangulate(pts)
	if !reflect.DeepEqual(SortTriangles(seq.Triangles), SortTriangles(want.Triangles)) {
		t.Fatal("Triangulate and ParTriangulate disagree on the growth input")
	}
	if err := CheckDelaunay(want); err != nil {
		t.Fatalf("CheckDelaunay: %v", err)
	}
	if err := CheckConsistency(want); err != nil {
		t.Fatalf("CheckConsistency: %v", err)
	}

	if st == nil {
		t.Fatal("no boundary passed the pre-sized limit")
	}
	if len(st.Faces) <= limit {
		t.Fatalf("state captured at round %d holds %d faces, within the limit %d", st.Round, len(st.Faces), limit)
	}
	re, err := ResumeLive(st)
	if err != nil {
		t.Fatalf("ResumeLive(round %d): %v", st.Round, err)
	}
	meshEqual(t, "resumed past the pre-sized limit", liveToEnd(t, re), want)
}
