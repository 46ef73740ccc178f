package scc

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hashtable"
	"repro/internal/parallel"
	"repro/internal/sortutil"
)

// Parallel runs the Type 3 parallel SCC algorithm (Theorem 6.4): the pivots
// of each doubling round run forward and backward reachability searches
// concurrently inside their partitions as frozen at the end of the previous
// round; the combine step then
//
//  1. carves out components — a vertex joins the SCC of the
//     smallest-priority pivot whose searches reached it in both directions
//     (mutual reachability inside a partition implies same SCC, since
//     partitions are unions of SCCs); every live pivot reaches itself both
//     ways, so each round finishes all of its own pivots; and
//  2. refines the remaining partitions by the full per-search reachability
//     outcome — the paper's "cut any edge between a reached and an
//     unreached vertex", realized by hashing each vertex's (forward set,
//     backward set) of discovering pivots into its partition id. This is
//     more aggressive than the sequential splits, which the paper notes
//     only helps; reachability-based cuts never split an SCC.
//
// The combine groups this round's visits by target with the stable dense
// counting sort the LE-list combine uses, and is deterministic. The pivot
// that carves a component is its smallest vertex, so the labels come out
// canonical.
func Parallel(g *graph.Graph) (Labels, Stats) {
	n := g.N
	var st Stats
	g.EnsureReverse()
	part := make([]uint64, n) // current partition id (hash-refined)
	scc := make(Labels, n)
	for i := range scc {
		scc[i] = -1
	}

	// visit is one (target, pivot, direction) observation of a round.
	type visit struct {
		target int32
		pivot  int32
		fwd    bool
	}
	var roundVisits [][]visit // per pivot slot, filled in parallel

	runRound := func(lo, hi int) {
		roundVisits = make([][]visit, hi-lo)
		works := make([]int64, hi-lo)
		counts := make([]int64, hi-lo)
		searched := make([]int, hi-lo)
		// With fewer live pivots than cores (the early rounds), use the
		// frontier-parallel reachability so a single huge search is not a
		// sequential bottleneck; with many pivots, run sequential searches
		// concurrently across pivots (the paper's schedule).
		useParSearch := hi-lo < parallel.MaxProcs()
		runPivot := func(k int) {
			if scc[k] >= 0 {
				return // pivot already carved out in an earlier round
			}
			p := part[k]
			in := func(u int) bool { return scc[u] < 0 && part[u] == p }
			var local []visit
			var r1, r2 int
			var w1, w2 int64
			if useParSearch {
				var vf, vb []int32
				vf, w1 = graph.ParReachFrom(g, k, true, in)
				vb, w2 = graph.ParReachFrom(g, k, false, in)
				r1, r2 = len(vf), len(vb)
				for _, u := range vf {
					local = append(local, visit{target: u, pivot: int32(k), fwd: true})
				}
				for _, u := range vb {
					local = append(local, visit{target: u, pivot: int32(k), fwd: false})
				}
			} else {
				r1, w1 = graph.ReachFrom(g, k, true, in, func(u int) {
					local = append(local, visit{target: int32(u), pivot: int32(k), fwd: true})
				})
				r2, w2 = graph.ReachFrom(g, k, false, in, func(u int) {
					local = append(local, visit{target: int32(u), pivot: int32(k), fwd: false})
				})
			}
			roundVisits[k-lo] = local
			works[k-lo] = w1 + w2
			counts[k-lo] = int64(r1 + r2)
			searched[k-lo] = 2
		}
		if useParSearch {
			for k := lo; k < hi; k++ {
				runPivot(k)
			}
		} else {
			// Grain 1: each pivot runs a whole reachability search, the
			// most skewed body in the repo; steal-based rebalancing is
			// essential so one giant search never pins a lane's queue.
			parallel.ForGrain(lo, hi, 1, runPivot)
		}
		st.ReachWork += parallel.Sum(works)
		st.Visits += parallel.Sum(counts)
		for _, s := range searched {
			st.Searches += s
		}
	}

	combine := func(lo, hi int) {
		total := 0
		for _, vs := range roundVisits {
			total += len(vs)
		}
		if total == 0 {
			roundVisits = nil
			return
		}
		st.CombineWork += int64(total)
		flat := make([]visit, 0, total)
		for _, vs := range roundVisits {
			flat = append(flat, vs...)
		}
		off, idx := sortutil.GroupDense(len(flat), n, func(i int) int {
			return int(flat[i].target)
		})
		// Group sizes are skewed; claims are lane-local on the stealing
		// pool, so grain 2 buys balance on the big groups for almost no
		// claim traffic.
		parallel.ForGrain(0, n, 2, func(u int) {
			// flat concatenates the pivot slots in increasing pivot order,
			// each slot lists its forward visits before its backward ones,
			// and the group-by is stable: u's visits come in increasing
			// pivot order, and a pivot that reached u both ways appears as
			// an adjacent (forward, backward) pair. The carve min-scan and
			// the order-sensitive refine hash below rely on exactly this
			// order.
			grp := idx[off[u]:off[u+1]]
			// Carve: the first such pair is the smallest pivot present in
			// both directions.
			for j := 1; j < len(grp); j++ {
				if p := flat[grp[j]].pivot; p == flat[grp[j-1]].pivot {
					scc[u] = p
					return
				}
			}
			// Refine: hash the exact reachability outcome, forward
			// discoverers then backward ones, into the partition id. A
			// hash collision can only merge partitions, which affects work
			// but never correctness (carving relies on mutual reachability
			// alone, and every vertex is eventually its own pivot).
			h := part[u]
			for _, ix := range grp {
				if v := flat[ix]; v.fwd {
					h = hashtable.Mix64(h ^ hashtable.Mix64(uint64(v.pivot)*2+1))
				}
			}
			for _, ix := range grp {
				if v := flat[ix]; !v.fwd {
					h = hashtable.Mix64(h ^ hashtable.Mix64(uint64(v.pivot)*2))
				}
			}
			part[u] = h
		})
		roundVisits = nil
	}

	hooks := core.Type3Hooks{
		RunFirst: func() {
			runRound(0, 1)
			combine(0, 1)
		},
		RunRound: runRound,
		Combine:  combine,
	}
	st.Rounds = core.RunType3(n, hooks).Rounds
	st.NumSCCs = countRoots(scc)
	return scc, st
}
