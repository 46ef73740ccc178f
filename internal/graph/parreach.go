package graph

import (
	"sync/atomic"

	"repro/internal/parallel"
)

// ParReachFrom is the parallel counterpart of ReachFrom: a
// frontier-synchronous reachability search (parallel BFS) from src,
// restricted to vertices with in(u) true, in the forward or backward
// direction. It returns the reached vertices (src first, then in discovery
// rounds) and the number of edges scanned. The order is deterministic:
// within a round, vertices follow their first discoverer's frontier
// position, then its adjacency order — the order a sequential
// level-by-level search produces, at any worker count.
//
// This realizes the paper's reachability black box with depth
// D_R = O(diameter) instead of the sequential search's O(reached): the
// early rounds of the Type 3 SCC algorithm have few concurrent pivots, so
// without intra-search parallelism the first round would be fully
// sequential.
func ParReachFrom(g *Graph, src int, forward bool, in func(u int) bool) (visited []int32, edgesScanned int64) {
	if !in(src) {
		return nil, 0
	}
	if !forward {
		g.EnsureReverse()
	}
	// owner[v] is 1 + the visited index of the frontier vertex that
	// discovered v, lowered by a priority write so the first discoverer
	// wins; 0 means unreached, and src counts as discovering itself.
	// Visited indices grow round by round, so a vertex reached in an
	// earlier round always has a smaller owner than any current discoverer.
	owner := make([]atomic.Int32, g.N)
	owner[src].Store(1)
	visited = append(visited, int32(src))
	type claim struct{ pos, v int32 }
	var edges atomic.Int64
	for lo := 0; lo < len(visited); {
		frontier := visited[lo:]
		// Expand every frontier vertex in parallel, claiming new vertices
		// with a min-write of the discoverer's position. Grain 8 keeps
		// chunks small because per-vertex cost is the (skewed) degree;
		// thieves split the ranges holding the heavy vertices, and the
		// finer grain costs only lane-local claims on the stealing pool.
		nb := parallel.NumBlocks(len(frontier), 8)
		claims := make([][]claim, nb)
		parallel.BlocksN(0, len(frontier), nb, func(bi, blo, bhi int) {
			var local []claim
			var scanned int64
			for k := blo; k < bhi; k++ {
				pos := int32(lo + k + 1)
				for _, v := range g.Neighbors(int(frontier[k]), forward) {
					scanned++
					if o := owner[v].Load(); (o != 0 && o <= pos) || !in(int(v)) {
						continue
					}
					if lowerOwner(&owner[v], pos) {
						local = append(local, claim{pos, v})
					}
				}
			}
			claims[bi] = local
			edges.Add(scanned)
		})
		// A vertex's final owner made exactly one claim, so keeping the
		// claims that still match appends each new vertex once, in block
		// order: the next frontier does not depend on the schedule.
		lo = len(visited)
		for _, l := range claims {
			for _, cl := range l {
				if owner[cl.v].Load() == cl.pos {
					visited = append(visited, cl.v)
				}
			}
		}
	}
	return visited, edges.Load()
}

// lowerOwner lowers *o to pos unless it already holds a position no larger
// (0 means none) and reports whether it wrote.
func lowerOwner(o *atomic.Int32, pos int32) bool {
	for {
		cur := o.Load()
		if cur != 0 && cur <= pos {
			return false
		}
		if o.CompareAndSwap(cur, pos) {
			return true
		}
	}
}
