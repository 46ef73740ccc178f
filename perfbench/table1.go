package main

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"time"

	"repro/internal/delaunay"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/rng"
)

const (
	// table1ViewN is the size of the finished mesh table1's reader queries.
	table1ViewN = 1 << 14
	// yardN and yardReps shape the GKS yardstick: best of yardReps runs at
	// n = yardN, the size ROADMAP's ≤ 1.2× target is stated at.
	yardN    = 4096
	yardReps = 5
)

// table1Row is one Table 1 row as `ridt table1 -max 16384` runs it, with
// the paper bounds its normalized columns must stay within.
type table1Row struct {
	name   string
	sizes  []int
	run    func(seed uint64, sizes []int) *experiments.Table
	bounds map[string]float64 // column header → upper bound
}

func sizesUpTo(lo, hi int) []int {
	var s []int
	for n := lo; n <= hi; n *= 2 {
		s = append(s, n)
	}
	return s
}

var table1Rows = []table1Row{
	{"sort", sizesUpTo(1024, 16384), experiments.SortScaling,
		// Corollary 2.4; Theorem 2.1's whp depth threshold 2e².
		map[string]float64{"cmp/(n ln n)": 2, "depth/H_n": 14.78}},
	{"dt", sizesUpTo(512, 16384), experiments.DelaunayScaling,
		map[string]float64{"IC/(n ln n)": 24}}, // Theorem 4.5
	{"lp", sizesUpTo(1024, 16384), experiments.LPScaling, nil},
	{"cp", sizesUpTo(1024, 16384), experiments.ClosestPairScaling, nil},
	{"seb", sizesUpTo(1024, 16384), experiments.SEBScaling, nil},
	{"lelists_w", sizesUpTo(512, 16384), func(seed uint64, sizes []int) *experiments.Table {
		return experiments.LEListsScaling(seed, sizes, 8, true)
	}, nil},
	{"lelists_u", sizesUpTo(512, 16384), func(seed uint64, sizes []int) *experiments.Table {
		return experiments.LEListsScaling(seed+1, sizes, 8, false)
	}, nil},
	{"scc", sizesUpTo(512, 16384), func(seed uint64, sizes []int) *experiments.Table {
		return experiments.SCCScaling(seed, sizes, 4)
	}, nil},
}

// table1 runs every Table 1 row while the reader queries a finished mesh
// built in set-up: nothing is published, captured or saved, so a change to
// those layers must leave this workload flat.
func (b *bench) table1() error {
	var static *delaunay.Live
	if err := b.timeSetup(func(k int) error {
		b.rd.pool = queryPool(b.seed, -1.1, 1.1)
		lv := delaunay.NewLive(geom.Dedup(geom.UniformDisk(rng.New(subSeed(b.seed, k)), table1ViewN)))
		if _, err := lv.Run(nil); err != nil {
			return fmt.Errorf("reader mesh: %w", err)
		}
		static = lv
		return nil
	}); err != nil {
		return err
	}
	iter := func(input int, traced bool) (sample, error) {
		s := sample{vals: map[string]float64{}, root: -1}
		seed := subSeed(b.seed, input)
		b.rd.begin(static)
		cpu0 := cpuTime()
		t0 := time.Now()
		s.root = b.tr.begin("table1", -1)
		tables := make([]*experiments.Table, len(table1Rows))
		for i, row := range table1Rows {
			sp := b.tr.begin("table1."+row.name, s.root)
			tables[i] = row.run(seed, row.sizes)
			b.tr.end(sp)
		}
		s.wall = time.Since(t0)
		s.cpu = cpuTime() - cpu0
		b.tr.end(s.root)
		b.rd.end()
		s.vals["table1_s"] = s.wall.Seconds()
		if traced {
			for n, d := range b.tr.sums(s.root, map[string][]float64{}) {
				s.vals[n+"_ms"] = d.Seconds() * 1e3
			}
		}
		for i, row := range table1Rows {
			b.checkTable(row, tables[i])
		}
		return s, nil
	}
	warm := func() error {
		b.rd.reset(false)
		_, err := iter(0, false)
		return err
	}
	if err := b.measure(warm, iter); err != nil {
		return err
	}
	b.addReaderChecks()
	if b.traced {
		b.yardstick()
	}
	return nil
}

// checkTable checks that a row has one line per size, that its cells are
// numbers, and that its normalized columns are within the paper bounds.
func (b *bench) checkTable(row table1Row, t *experiments.Table) {
	b.check(len(t.Rows) == len(row.sizes), "table1 %s: %d lines, want %d", row.name, len(t.Rows), len(row.sizes))
	for _, line := range t.Rows {
		for j, cell := range line {
			_, err := strconv.ParseFloat(cell, 64)
			b.check(err == nil, "table1 %s: column %q holds %q", row.name, t.Headers[j], cell)
		}
	}
	for col, bound := range row.bounds {
		j := slices.Index(t.Headers, col)
		b.check(j >= 0, "table1 %s: no column %q", row.name, col)
		if j < 0 {
			continue
		}
		for _, line := range t.Rows {
			v, err := strconv.ParseFloat(line[j], 64)
			b.check(err == nil && v <= bound, "table1 %s n=%s: %s = %s, bound %g", row.name, line[0], col, line[j], bound)
		}
	}
}

// yardstick times Triangulate, ParTriangulate and GKSTriangulate at
// n = yardN under GOMAXPROCS 1 and 2 and checks that the parallel and GKS
// meshes are the same triangle set.
func (b *bench) yardstick() {
	pts := geom.Dedup(geom.UniformSquare(rng.New(b.seed), yardN))
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, p := range []int{1, 2} {
		runtime.GOMAXPROCS(p)
		var par, gks *delaunay.Mesh
		seqT := bestOf(func() { delaunay.Triangulate(pts) })
		parT := bestOf(func() { par = delaunay.ParTriangulate(pts) })
		gksT := bestOf(func() { gks, _ = delaunay.GKSTriangulate(pts) })
		b.check(slices.Equal(delaunay.SortTriangles(par.Triangles), delaunay.SortTriangles(gks.Triangles)),
			"yardstick: ParTriangulate and GKSTriangulate meshes differ at GOMAXPROCS=%d", p)
		b.layers[fmt.Sprintf("delaunay.seq_ms_p%d", p)] = seqT
		b.layers[fmt.Sprintf("delaunay.par_ms_p%d", p)] = parT
		b.layers[fmt.Sprintf("delaunay.gks_ms_p%d", p)] = gksT
		b.layers[fmt.Sprintf("delaunay.par_vs_gks_p%d", p)] = parT / gksT
		b.logf("yardstick GOMAXPROCS=%d n=%d: seq %.3f ms, par %.3f ms, gks %.3f ms, par/gks %.3f (target <= 1.2 at P=1)",
			p, len(pts), seqT, parT, gksT, parT/gksT)
	}
}

// bestOf is f's fastest time over yardReps runs, in ms.
func bestOf(f func()) float64 {
	best := time.Duration(1 << 62)
	for i := 0; i < yardReps; i++ {
		runtime.GC()
		t0 := time.Now()
		f()
		best = min(best, time.Since(t0))
	}
	return best.Seconds() * 1e3
}
