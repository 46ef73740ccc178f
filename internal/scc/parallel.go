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
// The combine is a semisort over this round's visit triples, exactly like
// the LE-list combine, and is deterministic.
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
		groups := sortutil.Semisort(len(flat), func(i int) uint64 {
			return uint64(flat[i].target)
		})
		// Group sizes are skewed; claims are lane-local on the stealing
		// pool, so grain 2 buys balance on the big groups for almost no
		// claim traffic.
		parallel.ForGrain(0, len(groups), 2, func(gi int) {
			grp := groups[gi]
			u := flat[grp.Indices[0]].target
			// Collect this vertex's discoverers per direction. Both lists
			// are ascending by construction — flat concatenates the pivot
			// slots in increasing pivot order and Semisort returns indices
			// in increasing order — so no sort is needed here (the engine's
			// dedup discipline: derive order, don't re-establish it). The
			// carve min-scan and the order-sensitive refine hash below rely
			// on exactly this order, matching what the removed sorts
			// produced.
			var fwd, bwd []int32
			for _, ix := range grp.Indices {
				v := flat[ix]
				if v.fwd {
					fwd = append(fwd, v.pivot)
				} else {
					bwd = append(bwd, v.pivot)
				}
			}
			// Carve: smallest pivot present in both directions.
			for i, j := 0, 0; i < len(fwd) && j < len(bwd); {
				switch {
				case fwd[i] < bwd[j]:
					i++
				case fwd[i] > bwd[j]:
					j++
				default:
					scc[u] = fwd[i]
					return
				}
			}
			// Refine: hash the exact reachability outcome into the
			// partition id. A hash collision can only merge partitions,
			// which affects work but never correctness (carving relies on
			// mutual reachability alone, and every vertex is eventually
			// its own pivot).
			h := part[u]
			for _, s := range fwd {
				h = hashtable.Mix64(h ^ hashtable.Mix64(uint64(s)*2+1))
			}
			for _, s := range bwd {
				h = hashtable.Mix64(h ^ hashtable.Mix64(uint64(s)*2))
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
	labels, num := canonicalizePar(scc)
	st.NumSCCs = num
	return labels, st
}

// canonicalizePar is Canonicalize + CountSCCs fused for the parallel path:
// a lock-free table keyed by raw component id accumulates the minimum
// member per component with a pure min-write Update (retried CAS, the
// priority-write idiom), then every vertex is relabeled in parallel. The
// result is identical to Canonicalize (min is order-independent) and the
// component count falls out of the table for free.
func canonicalizePar(l Labels) (Labels, int) {
	// Presized for the worst case of half the vertices being their own
	// component; shattered graphs beyond that pay one cooperative growth.
	// int32 minima live in the seqlock inline-slot table: the winning
	// min-writes allocate no value box (the remaining write cost UpdateIf
	// could not prune away).
	minOf := hashtable.NewLockFreeInline[int32, int32](len(l)/2+16,
		func(k int32) uint64 { return hashtable.Mix64(uint64(uint32(k))) },
		hashtable.EncInt32, hashtable.DecInt32)
	parallel.ForGrain(0, len(l), 0, func(v int) {
		// Pruned priority write (the ReduceMinIndex discipline): a cheap
		// read skips the table op once the component's minimum has settled
		// below v, which is the common case; races that slip past the read
		// take UpdateIf's leave-as-is path, which performs no CAS and
		// allocates no value box.
		if cur, ok := minOf.Load(l[v]); ok && cur < int32(v) {
			return
		}
		minOf.UpdateIf(l[v], func(old int32, ok bool) (int32, bool) {
			if ok && old <= int32(v) {
				return old, false
			}
			return int32(v), true
		})
	})
	out := make(Labels, len(l))
	parallel.ForGrain(0, len(l), 0, func(v int) {
		m, _ := minOf.Load(l[v])
		out[v] = m
	})
	return out, minOf.Len()
}
