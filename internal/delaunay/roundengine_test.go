package delaunay

// Tests for the round engine's new machinery: the round-stamp claim dedup
// under forced contention, the determinism it buys, the faceEntry codec,
// the arena allocators, and the steady-state allocation pins. The
// black-box equivalence suite (delaunay_test.go, unmodified) remains the
// primary correctness oracle.

import (
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/rng"
)

func TestFaceEntryCodec(t *testing.T) {
	cases := []faceEntry{
		{},
		{t0: 0, t1: NoTri},
		{t0: 1, t1: 2, round: 3, claim: 4},
		{t0: 1<<31 - 1, t1: NoTri, round: 1<<31 - 1, claim: -1},
		{t0: -1, t1: -2, round: -3, claim: -4},
	}
	for _, e := range cases {
		a, b := encFace(e)
		if got := decFace(a, b); got != e {
			t.Fatalf("codec roundtrip: %+v -> %+v", e, got)
		}
	}
}

// TestRoundStampClaimRace forces multi-winner contention on the claim
// stamp: many goroutines touch the same faces in the same round (the
// production engine has at most two touchers per face; here every fire
// index hits every face). After each round's barrier, every face must
// carry the minimum toucher index — i.e. exactly one deterministic winner
// — regardless of interleaving. Run under -race by the CI race job.
func TestRoundStampClaimRace(t *testing.T) {
	const nfaces = 64
	touchers := 4 * runtime.GOMAXPROCS(0)
	if touchers < 8 {
		touchers = 8
	}
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	faces := newFaceMap(0, 2*nfaces)
	for r := int32(1); r <= int32(rounds); r++ {
		// Offset the winning index each round so stale stamps from the
		// previous round would be caught.
		minK := r % 5
		// Grain 1 over the full (face, toucher) cross product: maximal
		// interleaving of same-face updates.
		parallel.ForGrain(0, nfaces*touchers, 1, func(i int) {
			fk := uint64(i%nfaces) + 1
			k := int32(i/nfaces) + minK
			attachNewFace(faces, fk, int32(i), r, k)
		})
		for f := 0; f < nfaces; f++ {
			ent, ok := faces.Load(uint64(f) + 1)
			if !ok {
				t.Fatalf("round %d: face %d missing", r, f)
			}
			if ent.round != r || ent.claim != minK {
				t.Fatalf("round %d: face %d stamp = (round %d, claim %d), want (%d, %d)",
					r, f, ent.round, ent.claim, r, minK)
			}
			// Exactly one winner: the claim equals exactly one toucher's
			// index (indices are distinct), so the emission flag pass keeps
			// exactly one slot per face.
			winners := 0
			for k := int32(0); k < int32(touchers); k++ {
				if ent.claim == k+minK {
					winners++
				}
			}
			if winners != 1 {
				t.Fatalf("round %d: face %d has %d winners", r, f, winners)
			}
		}
	}
}

// TestParTriangulateDeterministic pins the determinism argument of the
// sort-free dedup: two runs must produce bit-identical output, including
// triangle order (which depends on the candidate order the dedup emits).
func TestParTriangulateDeterministic(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(99), 1500))
	m1 := ParTriangulate(pts)
	m2 := ParTriangulate(pts)
	if len(m1.Triangles) != len(m2.Triangles) {
		t.Fatalf("triangle counts differ: %d vs %d", len(m1.Triangles), len(m2.Triangles))
	}
	for i := range m1.Triangles {
		if m1.Triangles[i].V != m2.Triangles[i].V {
			t.Fatalf("triangle %d differs across runs: %v vs %v",
				i, m1.Triangles[i].V, m2.Triangles[i].V)
		}
	}
	if m1.Stats != m2.Stats {
		t.Fatalf("stats differ across runs: %+v vs %+v", m1.Stats, m2.Stats)
	}
}

func TestI32Arena(t *testing.T) {
	var a i32arena
	// take/commit round trips, spilling across chunks.
	total := 0
	var slices [][]int32
	for i := 0; i < 100; i++ {
		n := (i * 37) % 300
		buf := a.take(n)
		if len(buf) != 0 || cap(buf) < n {
			t.Fatalf("take(%d): len=%d cap=%d", n, len(buf), cap(buf))
		}
		for j := 0; j < n; j++ {
			buf = append(buf, int32(i*1000+j))
		}
		a.commit(n)
		total += n
		slices = append(slices, buf)
	}
	// Earlier allocations must be untouched by later ones.
	for i, s := range slices {
		for j, v := range s {
			if v != int32(i*1000+j) {
				t.Fatalf("slice %d[%d] = %d, clobbered", i, j, v)
			}
		}
	}
	// Oversized request gets its own chunk.
	big := a.take(3 * i32chunk)
	if cap(big) < 3*i32chunk {
		t.Fatalf("oversize take cap=%d", cap(big))
	}
	a.commit(0)
	// After reset, chunks are reused: no allocations in steady state.
	a.reset()
	allocs := testing.AllocsPerRun(50, func() {
		a.reset()
		for i := 0; i < 64; i++ {
			buf := a.take(100)
			_ = buf
			a.commit(50)
		}
	})
	if allocs != 0 {
		t.Fatalf("i32arena steady-state allocs = %v, want 0", allocs)
	}
}

// TestFaceMapUpdateNoAlloc pins the inline-slot payoff on the actual face
// map value type: the Phase B updates (rip replacement and new-face
// attachment with the claim stamp) allocate nothing.
func TestFaceMapUpdateNoAlloc(t *testing.T) {
	faces := newFaceMap(0, 1024)
	for i := uint64(1); i <= 256; i++ {
		faces.Store(i, faceEntry{t0: int32(i), t1: NoTri})
	}
	allocs := testing.AllocsPerRun(200, func() {
		attachNewFace(faces, 7, 42, 3, 5)
		faces.Update(9, func(old faceEntry, ok bool) faceEntry {
			old.t0 = 11
			old.round, old.claim = 3, 5
			return old
		})
		faces.Load(13)
	})
	if allocs != 0 {
		t.Fatalf("face-map update allocs/op = %v, want 0", allocs)
	}
}

// TestRoundAllocsSteadyState drives the real engine round by round and
// asserts that once capacities have plateaued, a round's allocation count
// is a small constant — independent of how many faces fire — instead of
// the O(m) slices plus O(m) value boxes plus the sorted merge of the old
// round path. The bound covers the scheduler's per-loop task state (a
// handful of loops per round), occasional E-arena chunks, and nothing
// proportional to the round size.
func TestRoundAllocsSteadyState(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(17), 4000))
	e := newRoundEngine(pts)
	var ms runtime.MemStats
	var rounds int
	var worst uint64
	for {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if !e.step() {
			break
		}
		runtime.ReadMemStats(&ms)
		rounds++
		allocs := ms.Mallocs - before
		fires := len(e.ar.fires)
		// Warmup: the first rounds grow arena capacities and the face map;
		// judge only rounds after the peak sizes have been seen.
		if rounds > 12 && fires >= 64 {
			if allocs > worst {
				worst = allocs
			}
			if allocs > 192 {
				t.Fatalf("round %d (%d fires): %d allocs, want O(1) <= 192",
					rounds, fires, allocs)
			}
		}
	}
	if rounds < 15 {
		t.Fatalf("only %d rounds; steady-state window never reached", rounds)
	}
	t.Logf("rounds=%d worst steady-state allocs/round=%d", rounds, worst)
}

// TestParTriangulateTotalAllocs pins the whole-run allocation budget of
// both engines on the round engine's store: with the arena, the chunked E
// lists and (for ParTriangulate) the inline face map, total allocations
// are a small fraction of the triangle count (the old paths allocated
// several per triangle).
func TestParTriangulateTotalAllocs(t *testing.T) {
	pts := geom.Dedup(geom.UniformSquare(rng.New(23), 2000))
	ParTriangulate(pts) // warm the scheduler pool
	tris := float64(ParTriangulate(pts).Stats.TrianglesCreated)
	for _, alg := range []struct {
		name string
		run  func([]geom.Point) *Mesh
	}{{"ParTriangulate", ParTriangulate}, {"Triangulate", Triangulate}} {
		allocs := testing.AllocsPerRun(3, func() {
			alg.run(pts)
		})
		if allocs > tris/2 {
			t.Fatalf("%s allocs/run = %.0f for %.0f triangles; want < triangles/2", alg.name, allocs, tris)
		}
		t.Logf("%s: allocs/run=%.0f triangles=%.0f (%.3f allocs/triangle)", alg.name, allocs, tris, allocs/tris)
	}
}
