package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/rng"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from this run")

// goldenSeeds are the seeds the same-output oracle runs at.
var goldenSeeds = []uint64{1, 7}

// sizesUpTo mirrors ridt's size ladders: start, 2·start, ... up to max.
func sizesUpTo(max, start int) []int {
	var out []int
	for n := start; n <= max; n *= 2 {
		out = append(out, n)
	}
	return out
}

// table1Counters runs every Table 1 row at the `ridt table1 -max 4096`
// sizes and renders each table without its wall-clock columns (headers
// ending in "ms"): what remains are the paper's counters, which depend
// only on the seed.
func table1Counters(seed uint64) []string {
	geomSizes := sizesUpTo(4096, 1024)
	dtSizes := sizesUpTo(4096, 512)
	graphSizes := sizesUpTo(4096, 512)
	tabs := []*Table{
		SortScaling(seed, geomSizes),
		DelaunayScaling(seed, dtSizes),
		LPScaling(seed, geomSizes),
		ClosestPairScaling(seed, geomSizes),
		SEBScaling(seed, geomSizes),
		LEListsScaling(seed, graphSizes, 8, true),
		LEListsScaling(seed+1, graphSizes, 8, false),
		SCCScaling(seed, graphSizes, 4),
	}
	var out []string
	for _, tab := range tabs {
		var keep []int
		for i, h := range tab.Headers {
			if !strings.HasSuffix(h, "ms") {
				keep = append(keep, i)
			}
		}
		pick := func(cells []string) string {
			var b strings.Builder
			for j, i := range keep {
				if j > 0 {
					b.WriteByte('\t')
				}
				b.WriteString(cells[i])
			}
			return b.String()
		}
		out = append(out, fmt.Sprintf("# seed %d: %s", seed, tab.Title), pick(tab.Headers))
		for _, row := range tab.Rows {
			out = append(out, pick(row))
		}
	}
	return out
}

// meshDigests pins checkpoint.DigestMesh of the four ways to build one
// triangulation: Algorithm 4, Algorithm 5, a Live build, and a Live build
// captured at round 7, encoded, decoded and resumed.
func meshDigests(t *testing.T, seed uint64) []string {
	const n = 4096
	inputs := []struct {
		name string
		pts  []geom.Point
	}{
		{"disk", geom.Dedup(geom.UniformDisk(rng.New(seed), n))},
		{"square", geom.Dedup(geom.UniformSquare(rng.New(seed), n))},
		{"lattice", func() []geom.Point {
			r := rng.New(seed)
			pts := geom.GridJitter(r, n, 0)
			rng.ShuffleSlice(r, pts)
			return pts
		}()},
	}
	var out []string
	for _, in := range inputs {
		lv := delaunay.NewLive(in.pts)
		for lv.View().Round() < 7 {
			if more, err := lv.Step(nil); err != nil || !more {
				t.Fatalf("%s seed %d: build ended before round 7 (more=%v, err=%v)", in.name, seed, more, err)
			}
		}
		img := checkpoint.Encode(lv.CaptureState(), checkpoint.Meta{Seed: seed})
		live, err := lv.Run(nil)
		if err != nil {
			t.Fatalf("%s seed %d: Live run: %v", in.name, seed, err)
		}
		st, _, _, err := checkpoint.Decode(img)
		if err != nil {
			t.Fatalf("%s seed %d: decode: %v", in.name, seed, err)
		}
		rv, err := delaunay.ResumeLive(st)
		if err != nil {
			t.Fatalf("%s seed %d: resume: %v", in.name, seed, err)
		}
		resumed, err := rv.Run(nil)
		if err != nil {
			t.Fatalf("%s seed %d: resumed run: %v", in.name, seed, err)
		}
		for _, b := range []struct {
			name string
			m    *delaunay.Mesh
		}{
			{"Triangulate", delaunay.Triangulate(in.pts)},
			{"ParTriangulate", delaunay.ParTriangulate(in.pts)},
			{"Live", live},
			{"resumed@7", resumed},
		} {
			out = append(out, fmt.Sprintf("digest seed %d %s %s %08x", seed, in.name, b.name, checkpoint.DigestMesh(b.m)))
		}
	}
	return out
}

// TestSameOutputGolden is the same-output oracle for refactors: every
// Table 1 counter (seeds 1 and 7) and the mesh digests of four build
// paths on disk, square and shuffled-lattice inputs must match
// testdata/golden.txt exactly. The counters must not depend on the worker
// count either, which the CI -cpu=1,2,4 matrix checks with this test. A
// change that moves a counter on purpose reruns it with -update and lists
// the rewrite.
func TestSameOutputGolden(t *testing.T) {
	var lines []string
	for _, seed := range goldenSeeds {
		lines = append(lines, table1Counters(seed)...)
	}
	for _, seed := range goldenSeeds {
		lines = append(lines, meshDigests(t, seed)...)
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rerun with -update to record it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	diffs := 0
	for i := 0; i < max(len(lines), len(want)); i++ {
		var g, w string
		if i < len(lines) {
			g = lines[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			if diffs < 10 {
				t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
			}
			diffs++
		}
	}
	if diffs > 0 {
		t.Fatalf("%d of %d lines differ from %s", diffs, len(want), path)
	}
}
