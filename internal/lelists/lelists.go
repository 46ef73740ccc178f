// Package lelists implements Section 6.1 of the paper: Cohen's incremental
// construction of least-element lists (LE-lists) and its Type 3
// parallelization.
//
// Vertex u appears in vertex v's LE-list iff no earlier vertex (in the
// random priority order) is closer to v than u is. The sequential
// construction (Algorithm 6) runs one pruned SSSP per vertex in priority
// order; the parallel version (Algorithm 2 applied with the separating
// dependences of Lemma 6.1) runs the searches of each doubling round
// concurrently against the distance bounds frozen at the end of the
// previous round, then groups the round's visits by target with a stable
// dense counting sort, keeping for each target the entries whose distances
// strictly decrease in source order. The combined state after each round
// is exactly the sequential state, so the resulting lists are identical.
package lelists

import (
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/sortutil"
)

// Entry is one LE-list element: source vertex and its distance.
type Entry struct {
	V    int32
	Dist float64
}

// Lists holds L(u) for every vertex u, in insertion (priority) order —
// distances strictly decrease along each list; the paper's "sorted by
// d(v_i, v_j)" order is the reverse.
type Lists [][]Entry

// Stats reports the counters of a construction run.
type Stats struct {
	SearchWork  int64 // edges relaxed / scanned across all searches
	Visits      int64 // total source-target visits (dependences)
	MaxPerVert  int   // max visits to any single vertex (Theorem 2.6: O(log n) whp)
	Rounds      int   // doubling rounds of the parallel schedule
	CombineWork int64 // entries processed by the combine steps
}

// Sequential builds the LE-lists of g with vertices in index-priority order
// (pre-shuffled ids; vertex 0 has the highest priority).
func Sequential(g *graph.Graph) (Lists, Stats) {
	n := g.N
	var st Stats
	delta := make([]float64, n)
	for i := range delta {
		delta[i] = math.Inf(1)
	}
	lists := make(Lists, n)
	perVert := make([]int32, n)
	for i := 0; i < n; i++ {
		visits, work := graph.PrunedSearch(g, i, func(u int) float64 { return delta[u] })
		st.SearchWork += work
		st.Visits += int64(len(visits))
		for _, v := range visits {
			delta[v.Target] = v.Dist
			lists[v.Target] = append(lists[v.Target], Entry{V: int32(i), Dist: v.Dist})
			perVert[v.Target]++
		}
	}
	for _, c := range perVert {
		if int(c) > st.MaxPerVert {
			st.MaxPerVert = int(c)
		}
	}
	return lists, st
}

// Parallel builds the LE-lists with the Type 3 round schedule. The output
// is identical to Sequential's.
func Parallel(g *graph.Graph) (Lists, Stats) {
	n := g.N
	var st Stats
	delta := make([]float64, n)
	for i := range delta {
		delta[i] = math.Inf(1)
	}
	lists := make(Lists, n)

	// Per-round buffers.
	type srcVisits struct {
		src    int32
		visits []graph.Visit
	}
	var roundResults []srcVisits

	runRange := func(lo, hi int) {
		roundResults = make([]srcVisits, hi-lo)
		bound := func(u int) float64 { return delta[u] } // frozen: combine writes later
		works := make([]int64, hi-lo)
		// Grain 1: pruned-search cost collapses as delta tightens, so
		// per-source claims let early heavy searches load-balance.
		parallel.ForGrain(lo, hi, 1, func(k int) {
			visits, work := graph.PrunedSearch(g, k, bound)
			roundResults[k-lo] = srcVisits{src: int32(k), visits: visits}
			works[k-lo] = work
		})
		st.SearchWork += parallel.Sum(works)
	}

	combineRange := func(lo, hi int) {
		// Flatten (src, target, dist) triples.
		type triple struct {
			src    int32
			target int32
			dist   float64
		}
		total := 0
		for _, rr := range roundResults {
			total += len(rr.visits)
		}
		triples := make([]triple, 0, total)
		for _, rr := range roundResults {
			for _, v := range rr.visits {
				triples = append(triples, triple{src: rr.src, target: int32(v.Target), dist: v.Dist})
			}
		}
		st.CombineWork += int64(len(triples))
		// The triples are in source order and the group-by is stable, so
		// each target's entries come out in source priority order.
		off, idx := sortutil.GroupDense(len(triples), n, func(i int) int {
			return int(triples[i].target)
		})
		// Grain 1: group sizes are skewed (hub targets collect many
		// triples).
		parallel.ForGrain(0, n, 1, func(target int) {
			m := delta[target]
			for _, ti := range idx[off[target]:off[target+1]] {
				tr := triples[ti]
				if tr.dist < m {
					m = tr.dist
					lists[target] = append(lists[target], Entry{V: tr.src, Dist: tr.dist})
				}
			}
			delta[target] = m
		})
		roundResults = nil
	}

	hooks := core.Type3Hooks{
		RunFirst: func() {
			runRange(0, 1)
			combineRange(0, 1)
		},
		RunRound: runRange,
		Combine:  combineRange,
	}
	t3 := core.RunType3(n, hooks)
	st.Rounds = t3.Rounds
	// Each kept dependence is one list entry.
	for _, l := range lists {
		st.Visits += int64(len(l))
		st.MaxPerVert = max(st.MaxPerVert, len(l))
	}
	return lists, st
}

// BruteForce builds the LE-lists directly from the definition using one
// full SSSP per vertex; O(n · SSSP). Test oracle.
func BruteForce(g *graph.Graph) Lists {
	n := g.N
	dist := make([][]float64, n)
	for i := 0; i < n; i++ {
		dist[i] = graph.FullSSSP(g, i)
	}
	lists := make(Lists, n)
	for u := 0; u < n; u++ {
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			if dist[i][u] < best {
				best = dist[i][u]
				lists[u] = append(lists[u], Entry{V: int32(i), Dist: dist[i][u]})
			}
		}
	}
	return lists
}

// Equal reports whether two list sets are identical.
func Equal(a, b Lists) bool {
	if len(a) != len(b) {
		return false
	}
	for u := range a {
		if len(a[u]) != len(b[u]) {
			return false
		}
		for k := range a[u] {
			if a[u][k] != b[u][k] {
				return false
			}
		}
	}
	return true
}
