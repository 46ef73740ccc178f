// Benchmarks regenerating the paper's evaluation artifacts, one family per
// Table 1 row plus theorem-level constants and design ablations. Run with
//
//	go test -bench=. -benchmem
//
// Absolute times are machine-dependent; the quantities to compare are the
// reported custom metrics (normalized work, depth) and the relative times
// of the sequential, parallel and baseline variants.
package repro

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/bstsort"
	"repro/internal/closestpair"
	"repro/internal/core"
	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/lelists"
	"repro/internal/lp"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/scc"
	"repro/internal/seb"
	"repro/internal/sortutil"
)

var benchSizes = []int{1 << 12, 1 << 14}

func randKeys(seed uint64, n int) []float64 {
	r := rng.New(seed)
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = r.Float64()
	}
	return keys
}

// --- Table 1 row: comparison sorting -----------------------------------

func BenchmarkTable1SortSeq(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			keys := randKeys(uint64(n), n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st := bstsort.SeqInsert(keys)
				if i == 0 {
					b.ReportMetric(float64(st.Comparisons)/(float64(n)*math.Log(float64(n))), "cmp/nlnn")
				}
			}
		})
	}
}

func BenchmarkTable1SortPar(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			keys := randKeys(uint64(n), n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st := bstsort.ParInsert(keys)
				if i == 0 {
					b.ReportMetric(float64(st.Rounds), "depth")
				}
			}
		})
	}
}

func BenchmarkTable1SortPrefix(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			keys := randKeys(uint64(n), n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bstsort.ParInsertPrefix(keys)
			}
		})
	}
}

func BenchmarkTable1SortBaselineSampleSort(b *testing.B) {
	// The repository's parallel merge sort as the non-incremental baseline.
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			keys := randKeys(uint64(n), n)
			buf := make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, keys)
				sortutil.Sort(buf, func(a, c float64) bool { return a < c })
			}
		})
	}
}

// --- Table 1 row: Delaunay triangulation -------------------------------

func BenchmarkTable1DelaunaySeq(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := geom.Dedup(geom.UniformSquare(rng.New(uint64(n)), n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := delaunay.Triangulate(pts)
				if i == 0 {
					b.ReportMetric(float64(m.Stats.InCircleTests)/(float64(n)*math.Log(float64(n))), "IC/nlnn")
				}
			}
		})
	}
}

func BenchmarkTable1DelaunayPar(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			// allocs/op is a gated metric (benchgate -allocthreshold): the
			// round engine's arena + inline face map hold it near the round
			// count, and a regression back toward O(triangles) must fail CI.
			b.ReportAllocs()
			pts := geom.Dedup(geom.UniformSquare(rng.New(uint64(n)), n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := delaunay.ParTriangulate(pts)
				if i == 0 {
					b.ReportMetric(float64(m.Stats.DepDepth), "depth")
				}
			}
		})
	}
}

func BenchmarkTable1DelaunayBaselineGKS(b *testing.B) {
	// The Guibas–Knuth–Sharir history-DAG algorithm: the standard
	// sequential incremental DT the paper contrasts with BT.
	for _, n := range []int{1 << 10, 1 << 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := geom.Dedup(geom.UniformSquare(rng.New(uint64(n)), n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st := delaunay.GKSTriangulate(pts)
				if i == 0 {
					b.ReportMetric(float64(st.InCircleTests)/(float64(n)*math.Log(float64(n))), "IC/nlnn")
				}
			}
		})
	}
}

// BenchmarkThm45InCircle reports the Theorem 4.5 constant as a metric: the
// average of InCircle/(n ln n) must stay below 24.
func BenchmarkThm45InCircle(b *testing.B) {
	n := 1 << 12
	r := rng.New(7)
	var sum float64
	var count int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := geom.Dedup(geom.UniformSquare(r.Split(), n))
		m := delaunay.Triangulate(pts)
		sum += float64(m.Stats.InCircleTests) / (float64(n) * math.Log(float64(n)))
		count++
	}
	b.ReportMetric(sum/float64(count), "IC/nlnn")
	b.ReportMetric(24, "bound")
}

// --- Table 1 row: 2D linear programming --------------------------------

func BenchmarkTable1LPSeq(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rng.New(uint64(n))
			cons := lp.TangentConstraints(r, n)
			cx, cy := lp.RandomObjective(r)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st := lp.Solve(cons, cx, cy)
				if i == 0 {
					b.ReportMetric(float64(st.SideTests+st.OneDimWork)/float64(n), "work/n")
				}
			}
		})
	}
}

func BenchmarkTable1LPPar(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rng.New(uint64(n))
			cons := lp.TangentConstraints(r, n)
			cx, cy := lp.RandomObjective(r)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lp.ParSolve(cons, cx, cy)
			}
		})
	}
}

// --- Table 1 row: 2D closest pair ---------------------------------------

func BenchmarkTable1ClosestPairSeq(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := geom.Dedup(geom.UniformSquare(rng.New(uint64(n)), n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st := closestpair.Incremental(pts)
				if i == 0 {
					b.ReportMetric(float64(st.DistChecks+st.CellProbes)/float64(n), "work/n")
				}
			}
		})
	}
}

func BenchmarkTable1ClosestPairPar(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := geom.Dedup(geom.UniformSquare(rng.New(uint64(n)), n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				closestpair.ParIncremental(pts)
			}
		})
	}
}

func BenchmarkTable1ClosestPairBaselineDC(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := geom.Dedup(geom.UniformSquare(rng.New(uint64(n)), n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				closestpair.DivideAndConquer(pts)
			}
		})
	}
}

// --- Table 1 row: smallest enclosing disk -------------------------------

func BenchmarkTable1SEBSeq(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := geom.UniformDisk(rng.New(uint64(n)), n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st := seb.Incremental(pts)
				if i == 0 {
					b.ReportMetric(float64(st.InDiskTests)/float64(n), "tests/n")
				}
			}
		})
	}
}

func BenchmarkTable1SEBPar(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := geom.UniformDisk(rng.New(uint64(n)), n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seb.ParIncremental(pts)
			}
		})
	}
}

// --- Table 1 row: LE-lists ----------------------------------------------

func BenchmarkTable1LEListsSeq(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.GnmUndirected(rng.New(uint64(n)), n, 4*n, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st := lelists.Sequential(g)
				if i == 0 {
					b.ReportMetric(float64(st.SearchWork)/(float64(g.M())*math.Log(float64(n))), "work/mlnn")
				}
			}
		})
	}
}

func BenchmarkTable1LEListsPar(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.GnmUndirected(rng.New(uint64(n)), n, 4*n, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lelists.Parallel(g)
			}
		})
	}
}

// --- Table 1 row: SCC ----------------------------------------------------

func BenchmarkTable1SCCBaselineTarjan(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.GnmDirected(rng.New(uint64(n)), n, 4*n, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scc.Tarjan(g)
			}
		})
	}
}

func BenchmarkTable1SCCSeq(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.GnmDirected(rng.New(uint64(n)), n, 4*n, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st := scc.Sequential(g)
				if i == 0 {
					b.ReportMetric(float64(st.ReachWork)/(float64(g.M())*math.Log(float64(n))), "work/mlnn")
				}
			}
		})
	}
}

func BenchmarkTable1SCCPar(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.GnmDirected(rng.New(uint64(n)), n, 4*n, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st := scc.Parallel(g)
				if i == 0 {
					b.ReportMetric(float64(st.Rounds), "rounds")
				}
			}
		})
	}
}

// --- Type 2 runner: sequential reference vs reserve/commit batching ------
//
// The BenchmarkType2 family measures the framework change directly: the
// same algorithm, once through the sequential scan (the reference runner's
// serial probe order) and once through core.RunType2's batched
// reserve/commit schedule. On a multi-core run (GOMAXPROCS >= 4) the
// batched variants should show multi-core speedup on n >= 1e5 inputs. On a
// single-core run BenchmarkType2Runner ties (probes below the grain run
// inline) while the SEB/LP batched variants pay the parallel-hook tax —
// atomic counters and closure dispatch per probe — without the payoff.

var type2BenchSizes = []int{1 << 17}

func BenchmarkType2SEB(b *testing.B) {
	for _, n := range type2BenchSizes {
		pts := geom.UniformDisk(rng.New(uint64(n)), n)
		b.Run(fmt.Sprintf("runner=seq/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seb.Incremental(pts)
			}
		})
		b.Run(fmt.Sprintf("runner=batched/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, st := seb.ParIncremental(pts)
				if i == 0 {
					b.ReportMetric(float64(st.InDiskTests)/float64(n), "tests/n")
					b.ReportMetric(float64(st.MaxProbe), "maxprobe")
				}
			}
		})
	}
}

func BenchmarkType2LP(b *testing.B) {
	for _, n := range type2BenchSizes {
		r := rng.New(uint64(n))
		cons := lp.TangentConstraints(r, n)
		cx, cy := lp.RandomObjective(r)
		b.Run(fmt.Sprintf("runner=seq/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lp.Solve(cons, cx, cy)
			}
		})
		b.Run(fmt.Sprintf("runner=batched/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, st := lp.ParSolve(cons, cx, cy)
				if i == 0 {
					b.ReportMetric(float64(st.SideTests)/float64(n), "tests/n")
					b.ReportMetric(float64(st.MaxProbe), "maxprobe")
				}
			}
		})
	}
}

// BenchmarkType2Runner isolates the framework itself with O(1) hooks: the
// probe fan-out and reservation are the entire cost, so this is the purest
// view of the batched schedule's scaling. Specials arrive at the paper's
// ~c/k rate via a hash of the committed-special signature.
func BenchmarkType2Runner(b *testing.B) {
	mixb := func(x uint64) uint64 {
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		return x
	}
	n := 1 << 20
	run := func(b *testing.B, runner func(int, core.Type2Hooks) core.Type2Stats) {
		var checks int64
		for i := 0; i < b.N; i++ {
			var sig atomic.Uint64
			sig.Store(mixb(12345))
			st := runner(n, core.Type2Hooks{
				RunFirst: func() {},
				IsSpecial: func(k int) bool {
					return mixb(sig.Load()^mixb(uint64(k)+1))%uint64(k+1) < 2
				},
				RunRegular: func(lo, hi int) {},
				RunSpecial: func(k int) { sig.Store(mixb(sig.Load() ^ uint64(k))) },
			})
			checks = st.Checks
		}
		b.ReportMetric(float64(checks)/float64(n), "checks/n")
	}
	b.Run(fmt.Sprintf("runner=seq/n=%d", n), func(b *testing.B) { run(b, core.RunType2Seq) })
	b.Run(fmt.Sprintf("runner=batched/n=%d", n), func(b *testing.B) { run(b, core.RunType2) })
}

// --- Ablations (design choices called out in DESIGN.md) -----------------

// BenchmarkAblationGrain sweeps the parallel-for grain: too small pays
// scheduling overhead, too large loses load balance.
func BenchmarkAblationGrain(b *testing.B) {
	n := 1 << 20
	xs := make([]float64, n)
	for _, grain := range []int{64, 512, 4096, 65536} {
		b.Run(fmt.Sprintf("grain=%d", grain), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				parallel.ForGrain(0, n, grain, func(j int) {
					xs[j] = float64(j) * 1.0000001
				})
			}
		})
	}
}

// BenchmarkAblationPredicates prices InCircle on 65536 distinct
// quadruples per arm, so no arm replays inputs the branch predictor can
// learn, and reports the share of calls that get past the float filters:
//
//   - benign: random points (almost none);
//   - cocircular: points within 1e-12 of the unit circle (past the filter,
//     decided by the expansion stages on inexact differences);
//   - lattice: rectangles of the recover workload's lattice, exactly
//     cocircular with dyadic coordinates (every call past the filter,
//     decided exactly by stage B);
//   - shared-circle: one triangle's circle per 27 queries, as newTriData
//     tests Fact 4.1's candidates against the new triangle's circle (27
//     is the tests per triangle of a 65536-point disk build), through the
//     full InCircleStats;
//   - prepared: the same queries through one geom.PrepareCircle per
//     circle, as newTriData runs them.
//
// Every arm runs allocation-free.
func BenchmarkAblationPredicates(b *testing.B) {
	const quads = 1 << 16
	r := rng.New(11)
	benign := geom.UniformSquare(r, 4*quads)
	adversarial := geom.OnCircle(r, 4*quads, 1e-12)
	// Corners (i, j), (i+w, j), (i+w, j+h), (i, j+h) of distinct lattice
	// rectangles, counterclockwise. GridJitter lays the lattice out
	// column by column, side points per column.
	const side = 256
	grid := geom.GridJitter(r, side*side, 0)
	lattice := make([]geom.Point, 0, 4*quads)
	seen := make(map[[4]int]bool, quads)
	for len(lattice) < 4*quads {
		i, j := r.Intn(side-3), r.Intn(side-3)
		w, h := 1+r.Intn(3), 1+r.Intn(3)
		if seen[[4]int{i, j, w, h}] {
			continue
		}
		seen[[4]int{i, j, w, h}] = true
		lattice = append(lattice, grid[i*side+j], grid[(i+w)*side+j], grid[(i+w)*side+j+h], grid[i*side+j+h])
	}
	// Shared circles: counterclockwise corners within 0.01 of a random
	// centre and queries within 0.02 of it, so a good share encroach.
	const perCircle = 27
	near := func(x, y, h float64) geom.Point {
		return geom.Point{X: x + h*(2*r.Float64()-1), Y: y + h*(2*r.Float64()-1)}
	}
	tris := make([][3]geom.Point, (quads+perCircle-1)/perCircle)
	queries := make([]geom.Point, quads)
	var x, y float64
	for q := range queries {
		if q%perCircle == 0 {
			x, y = r.Float64(), r.Float64()
			c := &tris[q/perCircle]
			c[0], c[1], c[2] = near(x, y, 0.01), near(x, y, 0.01), near(x, y, 0.01)
			if geom.Orient2D(c[0], c[1], c[2]) < 0 {
				c[0], c[1] = c[1], c[0]
			}
		}
		queries[q] = near(x, y, 0.02)
	}
	report := func(b *testing.B, st *geom.PredicateStats) {
		if st.InCircleCalls > 0 {
			b.ReportMetric(float64(st.InCircleExact)/float64(st.InCircleCalls), "exact-rate")
		}
	}
	run := func(b *testing.B, pts []geom.Point) {
		var st geom.PredicateStats
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j+3 < len(pts); j += 4 {
				geom.InCircleStats(pts[j], pts[j+1], pts[j+2], pts[j+3], &st)
			}
		}
		report(b, &st)
	}
	b.Run("benign", func(b *testing.B) { run(b, benign) })
	b.Run("cocircular", func(b *testing.B) { run(b, adversarial) })
	b.Run("lattice", func(b *testing.B) { run(b, lattice) })
	b.Run("shared-circle", func(b *testing.B) {
		var st geom.PredicateStats
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for q, d := range queries {
				c := &tris[q/perCircle]
				geom.InCircleStats(c[0], c[1], c[2], d, &st)
			}
		}
		report(b, &st)
	})
	b.Run("prepared", func(b *testing.B) {
		var st geom.PredicateStats
		var pc geom.PreparedCircle
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for q, d := range queries {
				if q%perCircle == 0 {
					c := &tris[q/perCircle]
					pc = geom.PrepareCircle(c[0], c[1], c[2])
				}
				pc.InCircleStats(d, &st)
			}
		}
		report(b, &st)
	})
}

// BenchmarkAblationSCCCombine quantifies the price of the eager round
// schedule: parallel reach work divided by sequential reach work (the
// paper: a constant factor in expectation).
func BenchmarkAblationSCCCombine(b *testing.B) {
	n := 1 << 12
	g := graph.GnmDirected(rng.New(3), n, 4*n, false)
	_, seqSt := scc.Sequential(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, parSt := scc.Parallel(g)
		if i == 0 {
			b.ReportMetric(float64(parSt.ReachWork)/float64(seqSt.ReachWork), "work-ratio")
		}
	}
}

// BenchmarkHighDim exercises the d-dimensional extensions (Section 5's
// closing remarks): LP, closest pair, and smallest enclosing ball in R^3.
func BenchmarkHighDim(b *testing.B) {
	n := 1 << 12
	r := rng.New(19)
	b.Run("lp-d3", func(b *testing.B) {
		cons := lp.SphereTangentD(r, func() float64 { return 0.1 * r.Float64() }, n, 3)
		obj := []float64{0.3, -0.5, 0.81}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lp.SolveD(cons, obj)
		}
	})
	b.Run("closestpair-d3", func(b *testing.B) {
		pts := make([]closestpair.PointD, n)
		for i := range pts {
			pts[i] = closestpair.PointD{r.Float64(), r.Float64(), r.Float64()}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			closestpair.IncrementalD(pts)
		}
	})
	b.Run("seb-d3", func(b *testing.B) {
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seb.IncrementalD(pts)
		}
	})
}

// BenchmarkShuffle compares the sequential and parallel random
// permutations (the framework's precursor algorithm).
func BenchmarkShuffle(b *testing.B) {
	n := 1 << 18
	h := rng.SwapTargets(rng.New(17), n)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rng.SeqShuffleWithTargets(h)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rng.ParShuffleWithTargets(h)
		}
	})
}
