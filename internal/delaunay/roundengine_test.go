package delaunay

// Tests for the round engine's new machinery: the pair-rule candidate
// dedup under forced contention, the determinism it buys, the faceEntry
// codec, the arena allocators, and the steady-state allocation pins. The
// black-box equivalence suite (delaunay_test.go, unmodified) remains the
// primary correctness oracle.

import (
	"fmt"
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
		{t0: 1, t1: 2},
		{t0: 1<<31 - 1, t1: NoTri},
		{t0: -1, t1: -2},
	}
	for _, e := range cases {
		if got := decFace(encFace(e)); got != e {
			t.Fatalf("codec roundtrip: %+v -> %+v", e, got)
		}
	}
}

// TestRoundDedupPairRace drives the emission dedup under contention at
// the production bound of two touchers per face. Each synthetic round has
// m fires with triangle ids base+k; fire k rips one face of two earlier
// triangles and attaches two new faces. The new faces chain the fires in
// groups of four: fire k's second face is fire k+1's first, so it is
// created by one fire and joined by its neighbour, in whichever order the
// workers run them (odd rounds hand out the fires in descending order, so a
// single worker creates from each side in turn). Between groups the chain
// is cut: the group's last fire creates its second face alone, and it
// waits for the next round, whose group-first fire joins a face left
// waiting by the previous round. All of a round's touches race at grain 1.
// After the barrier, every face must hold its touchers' ids and exactly
// one slot per face must be kept: the smaller fire's. Run under -race by
// the CI matrix.
func TestRoundDedupPairRace(t *testing.T) {
	const m, group = 256, 4
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	faces := newFaceMap(0, m) // the rounds' Reserves grow it
	key := uint64(0)
	fresh := func() uint64 { key++; return key }
	base := int32(1000) // ids below base belong to earlier rounds
	var waiting []uint64
	for k := 0; k < m/group; k++ {
		fk := fresh()
		faces.Store(fk, faceEntry{t0: int32(k), t1: NoTri})
		waiting = append(waiting, fk)
	}
	dense := make([]uint64, 3*m)
	ripped := make([]int32, m) // the triangle each fire replaces on its ripped face
	for r := 0; r < rounds; r++ {
		faces.Reserve(3 * m)
		var left []uint64 // faces this round leaves waiting
		for k := 0; k < m; k++ {
			fk := fresh()
			old := faceEntry{t0: base - 1 - int32(k), t1: base - 1 - int32(m+k)}
			faces.Store(fk, old)
			ripped[k] = old.t0
			if k%2 == 1 {
				ripped[k] = old.t1
			}
			dense[3*k] = fk
			if k%group == 0 {
				dense[3*k+1] = waiting[k/group]
			} else {
				dense[3*k+1] = dense[3*(k-1)+2]
			}
			dense[3*k+2] = fresh()
			if k%group == group-1 {
				left = append(left, dense[3*k+2])
			}
		}
		parallel.ForGrain(0, 3*m, 1, func(i int) {
			k := i / 3
			if r%2 == 1 {
				k = m - 1 - k
			}
			id := base + int32(k)
			if j := i % 3; j == 0 {
				// The fire's rip: its triangle replaces the ripped one.
				faces.Update(dense[3*k], func(old faceEntry, _ bool) faceEntry {
					if old.t0 == ripped[k] {
						old.t0 = id
					} else {
						old.t1 = id
					}
					return old
				})
			} else {
				attachNewFace(faces, dense[3*k+j], id)
			}
		})

		// Every face's touchers this round, in slot order.
		touched := map[uint64][]int{}
		for i, fk := range dense {
			touched[fk] = append(touched[fk], i)
		}
		for fk, slots := range touched {
			if len(slots) > 2 {
				t.Fatalf("round %d: face %d has %d touchers, the bound is 2", r, fk, len(slots))
			}
			ent, ok := faces.Load(fk)
			if !ok {
				t.Fatalf("round %d: face %d missing", r, fk)
			}
			for _, i := range slots {
				if id := base + int32(i/3); ent.t0 != id && ent.t1 != id {
					t.Fatalf("round %d: face %d = %+v lacks toucher %d", r, fk, ent, id)
				}
			}
			kept := -1
			for _, i := range slots {
				if ent.kept(base+int32(i/3), base) {
					if kept >= 0 {
						t.Fatalf("round %d: face %d = %+v keeps slots %d and %d", r, fk, ent, kept, i)
					}
					kept = i
				}
			}
			if kept != slots[0] {
				t.Fatalf("round %d: face %d = %+v keeps slot %d, want %d (the smaller fire's)",
					r, fk, ent, kept, slots[0])
			}
		}
		for _, fk := range left {
			if ent, _ := faces.Load(fk); ent.t1 != NoTri {
				t.Fatalf("round %d: face %d = %+v, want one triangle (waiting)", r, fk, ent)
			}
		}
		waiting = left
		base += int32(m)
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
// map value type: the fire loop's updates (rip replacement and new-face
// attachment) and the emission load allocate nothing.
func TestFaceMapUpdateNoAlloc(t *testing.T) {
	faces := newFaceMap(0, 1024)
	for i := uint64(1); i <= 256; i++ {
		faces.Store(i, faceEntry{t0: int32(i), t1: NoTri})
	}
	allocs := testing.AllocsPerRun(200, func() {
		attachNewFace(faces, 7, 42)
		faces.Update(9, func(old faceEntry, ok bool) faceEntry {
			old.t0 = 11
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

// TestTriangleLogReserved requires every engine to fill its triangle log
// and depth array within logCap's reservation, so no build regrows and
// copies them, and the finals to fill their exact 2n+1 reservation: in
// finish for Triangulate and ParTriangulate, and in Live's final-id list.
// Inputs are uniform squares and disks (seeds 1–5) and the shuffled
// lattice; -short and the race detector keep n = 2000 only.
func TestTriangleLogReserved(t *testing.T) {
	sizes := []int{2000, 65536}
	if testing.Short() || raceEnabled {
		sizes = sizes[:1]
	}
	type input struct {
		name string
		pts  []geom.Point
	}
	for _, n := range sizes {
		ins := []input{{fmt.Sprintf("lattice/n=%d", n), shuffledLattice(1, n)}}
		for seed := uint64(1); seed <= 5; seed++ {
			ins = append(ins,
				input{fmt.Sprintf("square/n=%d/seed=%d", n, seed), geom.Dedup(geom.UniformSquare(rng.New(seed), n))},
				input{fmt.Sprintf("disk/n=%d/seed=%d", n, seed), geom.Dedup(geom.UniformDisk(rng.New(seed), n))})
		}
		for _, in := range ins {
			want, finals := logCap(len(in.pts)), finalCount(len(in.pts))
			check := func(engine string, s *store, m *Mesh) {
				t.Helper()
				if cap(s.tris) != want || cap(s.depth) != want {
					t.Errorf("%s %s: %d triangles created, log capacity %d and depth capacity %d, want the reservation %d",
						in.name, engine, len(s.tris), cap(s.tris), cap(s.depth), want)
				}
				if len(m.Triangles) != finals || cap(m.Triangles) != finals {
					t.Errorf("%s %s: %d finals in capacity %d, want %d in %d",
						in.name, engine, len(m.Triangles), cap(m.Triangles), finals, finals)
				}
			}
			s := newStore(in.pts)
			s.insertSequential()
			check("Triangulate", s, s.finish())
			e := newRoundEngine(in.pts)
			for e.step() {
			}
			check("ParTriangulate", e.s, e.s.finish())
			lv := NewLive(in.pts)
			m, err := lv.Run(nil)
			if err != nil {
				t.Fatalf("%s: Live.Run: %v", in.name, err)
			}
			check("Live", lv.e.s, m)
			if len(lv.final) != finals || cap(lv.final) != finals {
				t.Errorf("%s Live: %d final ids in capacity %d, want %d in %d",
					in.name, len(lv.final), cap(lv.final), finals, finals)
			}
		}
	}
}
