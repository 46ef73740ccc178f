package delaunay

// BenchmarkSnapshotRead* (mesh side): point location and adjacency
// queries against published views — the ridtd reader hot path. Recorded
// in BENCH_serve.json, gated by the CI bench job, run with -benchmem
// (zero allocs per query is a gated property).

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

func benchLive(b *testing.B, n int, rounds int) *Live {
	b.Helper()
	pts := geom.Dedup(geom.UniformSquare(rng.New(2027), n))
	lv := NewLive(pts)
	for i := 0; rounds <= 0 || i < rounds; i++ {
		more, err := lv.Step(nil)
		if err != nil {
			b.Fatal(err)
		}
		if !more {
			break
		}
	}
	return lv
}

func benchQueries(n int) []geom.Point {
	r := rng.New(4242)
	qs := make([]geom.Point, n)
	for i := range qs {
		qs[i] = geom.Point{X: r.Float64(), Y: r.Float64()}
	}
	return qs
}

// BenchmarkSnapshotReadLocate queries the completed view's location
// grid: the steady-state serving cost once a build finishes.
func BenchmarkSnapshotReadLocate(b *testing.B) {
	lv := benchLive(b, 1<<14, 0)
	v := lv.View()
	qs := benchQueries(1 << 10)
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			if _, ok := v.Locate(q); ok {
				hits++
			}
		}
	}
	_ = hits
}

// BenchmarkSnapshotReadLocateMidBuild queries a half-built view, where
// the final set is sparse and misses dominate (the frontier-probing
// pattern ridtd readers see early in a build).
func BenchmarkSnapshotReadLocateMidBuild(b *testing.B) {
	lv := benchLive(b, 1<<14, 12)
	v := lv.View()
	qs := benchQueries(1 << 10)
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			if _, ok := v.Locate(q); ok {
				hits++
			}
		}
	}
	_ = hits
}

// BenchmarkSnapshotReadIncident prices the adjacency side: located
// triangle -> face-map snapshot probe, the ridtd reader's inner loop.
func BenchmarkSnapshotReadIncident(b *testing.B) {
	lv := benchLive(b, 1<<14, 0)
	v := lv.View()
	fs := lv.Faces()
	defer fs.Close()
	qs := benchQueries(1 << 10)
	ids := make([]int32, 0, len(qs))
	for _, q := range qs {
		if id, ok := v.Locate(q); ok {
			ids = append(ids, id)
		}
	}
	b.ResetTimer()
	found := 0
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			c := v.Corners(id)
			if _, _, ok := fs.Incident(c[0], c[1]); ok {
				found++
			}
		}
	}
	_ = found
}

// publishNewFinals is BenchmarkSnapshotPublish's round size: about the
// largest round of its 16Ki-point build (1.7–2.1k new finals per round at
// most on uniform, disk and lattice inputs; 437 on average over 75 rounds).
const publishNewFinals = 2048

// BenchmarkSnapshotPublish prices one round's publication at a stated
// count of new finals: collect extends the final ids and the location
// index over the last publishNewFinals finals of a finished 16Ki-point
// build (scanning the triangle log from the first of them), and publish
// copies the cell heads into a mid-build view. Each iteration first
// rewinds the index to the rest of the build, untimed, with the entry
// array at its final capacity: a build pays append's regrowth copies a
// few dozen times in all, not once per round.
func BenchmarkSnapshotPublish(b *testing.B) {
	lv := benchLive(b, 1<<14, 0)
	s, final, nents := lv.e.s, lv.final, len(lv.ix.cellTris)
	cut := len(final) - publishNewFinals
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lv.final = append(make([]int32, 0, len(final)), final[:cut]...)
		lv.ix = newLocIndex(s.pts, s.n)
		lv.ix.ents = make([]locEntry, 0, nents)
		for _, id := range lv.final {
			lv.ix.add(s.pts, id, s.tris[id].V)
		}
		lv.scanned, lv.done = int(final[cut]), false
		b.StartTimer()
		lv.collect()
		lv.publish()
	}
}
