package delaunay

// A-B ablations for the round engine's three changes: the
// parallel activation filter vs the serial scan, the pair-rule dedup vs
// the sorted merge, and the arena-carved round scratch
// vs per-triangle makes. Results are recorded in BENCH_delaunay.json and
// the delaunay families are gated by cmd/benchgate in CI.
//
// Run with:
//
//	go test -run '^$' -bench BenchmarkDelaunayRound -benchmem ./internal/delaunay

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// benchEngine builds a finished triangulation's engine: the face map holds
// every face the run ever created, and cand lists all of them — the
// largest activation scan the input can produce (no face fires again, so
// the scan is repeatable).
func benchEngine(n int) *roundEngine {
	pts := geom.Dedup(geom.UniformSquare(rng.New(uint64(n)), n))
	e := newRoundEngine(pts)
	for e.step() {
	}
	var cand []uint64
	e.faces.Snapshot().Range(func(k uint64, v faceEntry) bool {
		cand = append(cand, k)
		return true
	})
	e.cand = cand
	return e
}

// BenchmarkDelaunayRoundActivation compares the shipped parallel blocked
// filter against the serial append loop it replaced, over the same
// candidate list and face map.
func BenchmarkDelaunayRoundActivation(b *testing.B) {
	e := benchEngine(1 << 12)
	s, faces, cand := e.s, e.faces, e.cand
	b.Run(fmt.Sprintf("scheme=serial/faces=%d", len(cand)), func(b *testing.B) {
		fires := make([]fire, 0, len(cand))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fires = fires[:0]
			for _, fk := range cand {
				ent, ok := faces.Load(fk)
				if !ok {
					continue
				}
				if ent.t1 == NoTri && !s.isBoundingEdge(fk) {
					continue
				}
				m0, m1 := s.minE(ent.t0), s.minE(ent.t1)
				switch {
				case m0 < m1:
					fires = append(fires, fire{fk, ent.t0, ent.t1})
				case m1 < m0:
					fires = append(fires, fire{fk, ent.t1, ent.t0})
				}
			}
		}
	})
	b.Run(fmt.Sprintf("scheme=parallel/faces=%d", len(cand)), func(b *testing.B) {
		ar := e.ar
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nc := len(cand)
			ar.evalF = growSlice(ar.evalF, nc)
			ar.evalOK = growSlice(ar.evalOK, nc)
			evalF, evalOK := ar.evalF, ar.evalOK
			parallel.Blocks(0, nc, activationGrain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					evalOK[i] = false
					ent, ok := faces.Load(cand[i])
					if !ok {
						continue
					}
					if ent.t1 == NoTri && !s.isBoundingEdge(cand[i]) {
						continue
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
				func(i int) bool { return evalOK[i] }, ar.counts)
		}
	})
}

// benchDense builds a synthetic round's touched-face stream: 3 slots per
// fire, the ripped face first. Each of a fire's two new-face slots joins,
// with probability dup, a face the previous fire created and no fire has
// joined yet (the both-sides-touched case the dedup exists for), so no
// face gets more than the two touchers a real round allows.
func benchDense(m int, dup float64) []uint64 {
	r := rng.New(uint64(m))
	dense := make([]uint64, 3*m)
	next := uint64(1)
	var open [2]uint64 // the previous fire's new faces still joinable (0: none)
	for k := 0; k < m; k++ {
		dense[3*k] = next // ripped face: unique
		next++
		prev := open
		for j := 1; j <= 2; j++ {
			if o := &prev[r.Uint64()%2]; *o != 0 && r.Float64() < dup {
				dense[3*k+j], open[j-1], *o = *o, 0, 0
			} else {
				dense[3*k+j], open[j-1] = next, next
				next++
			}
		}
	}
	return dense
}

// BenchmarkDelaunayRoundDedup compares the candidate dedup schemes over
// the same touched-face stream: the shipped pair-rule flag pass + pack
// (it reads the incident triangles the face-attachment updates write
// anyway) and the sorted merge the engine used before. This is the
// ablation that decided what ships — see DESIGN.md.
func BenchmarkDelaunayRoundDedup(b *testing.B) {
	const m = 1 << 13
	dense := benchDense(m, 0.5)
	b.Run(fmt.Sprintf("scheme=sort/m=%d", m), func(b *testing.B) {
		merged := make([]uint64, 0, len(dense))
		for i := 0; i < b.N; i++ {
			merged = append(merged[:0], dense...)
			sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
			out := merged[:0]
			for i, fk := range merged {
				if i == 0 || fk != merged[i-1] {
					out = append(out, fk)
				}
			}
		}
	})
	b.Run(fmt.Sprintf("scheme=pair/m=%d", m), func(b *testing.B) {
		// Prepare the face map as the fire loop leaves it: a ripped face
		// holds an older triangle and its fire's, a new face its one or
		// two touchers' ids.
		faces := newFaceMap(0, len(dense))
		const base = int32(1)
		for i, fk := range dense {
			id := base + int32(i/3)
			if i%3 == 0 {
				faces.Store(fk, faceEntry{t0: 0, t1: id})
			} else {
				attachNewFace(faces, fk, id)
			}
		}
		keep := make([]bool, len(dense))
		var cand []uint64
		counts := make([]int, 0, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			parallel.Blocks(0, len(dense), emissionGrain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					ent, _ := faces.Load(dense[i])
					keep[i] = ent.kept(base+int32(i/3), base)
				}
			})
			cand, counts = parallel.PackInto(cand, dense,
				func(i int) bool { return keep[i] }, counts)
		}
		b.StopTimer()
		if len(cand) != faces.Snapshot().Len() {
			b.Fatalf("pair dedup kept %d slots for %d faces", len(cand), faces.Snapshot().Len())
		}
	})
}

// BenchmarkDelaunayRoundArena compares the per-block E-list sub-arena
// against the make-per-triangle allocation it replaced, over a realistic
// size distribution (most encroacher lists are tiny, a few are large).
func BenchmarkDelaunayRoundArena(b *testing.B) {
	const m = 1 << 13
	r := rng.New(5)
	sizes := make([]int, m)
	for i := range sizes {
		sizes[i] = 1 + r.Intn(8)
		if r.Intn(32) == 0 {
			sizes[i] = 64 + r.Intn(256)
		}
	}
	fill := func(buf []int32, n int) []int32 {
		for j := 0; j < n; j++ {
			buf = append(buf, int32(j))
		}
		return buf
	}
	sink := make([][]int32, m)
	b.Run(fmt.Sprintf("scheme=make/m=%d", m), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k, n := range sizes {
				sink[k] = fill(make([]int32, 0, n), n)
			}
		}
	})
	b.Run(fmt.Sprintf("scheme=arena/m=%d", m), func(b *testing.B) {
		var ea i32arena
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ea.reset()
			for k, n := range sizes {
				buf := fill(ea.take(n), n)
				ea.commit(len(buf))
				sink[k] = buf
			}
		}
	})
}

// BenchmarkDelaunayPar is the package-local whole-run macro (the root
// BenchmarkTable1DelaunayPar with allocation tracking): the number to
// watch is allocs/op, which the arena + inline face map hold at a small
// multiple of the round count rather than the triangle count.
func BenchmarkDelaunayPar(b *testing.B) {
	for _, n := range []int{1 << 12} {
		pts := geom.Dedup(geom.UniformSquare(rng.New(uint64(n)), n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ParTriangulate(pts)
			}
		})
	}
}

// BenchmarkDelaunayParLattice is BenchmarkDelaunayPar on the exactly
// cocircular lattice of perfbench recover (shuffled GridJitter(·, 0)),
// where about 3% of InCircle calls get past the float filter and the
// exact stages decide them; its time against BenchmarkDelaunayPar's is
// the price of exactness on degenerate input.
func BenchmarkDelaunayParLattice(b *testing.B) {
	for _, n := range []int{1 << 12} {
		pts := shuffledLattice(uint64(n), n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ParTriangulate(pts)
			}
		})
	}
}
