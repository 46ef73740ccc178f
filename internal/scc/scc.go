// Package scc implements Section 6.2 of the paper: strongly connected
// components via the incremental view of Coppersmith, Fleischer,
// Hendrickson and Pinar's divide-and-conquer algorithm, its Type 3
// parallelization, and Tarjan's linear-time algorithm as the sequential
// baseline.
//
// The incremental formulation (Algorithm 7) processes vertices in a random
// priority order. Iteration i takes the subgraph S currently containing
// vertex i, runs forward and backward reachability from i inside S, outputs
// the intersection as i's SCC, and splits S into the three remaining parts.
// Lemma 6.3 shows the dependences (search visits) are separating, so the
// doubling-round schedule of Algorithm 2 applies with O(log n) rounds and a
// constant-factor work overhead.
package scc

import (
	"repro/internal/graph"
)

// Labels assigns every vertex its component: vertices with equal values are
// in the same SCC. Every algorithm here labels a component by its smallest
// vertex. Sequential and Parallel carve each component out at its first
// pivot in priority (index) order, and that pivot is its smallest vertex.
type Labels []int32

// Stats reports the counters of a run.
type Stats struct {
	ReachWork   int64 // edges scanned across all reachability searches
	Visits      int64 // vertex visits across all searches (dependences)
	Searches    int   // reachability searches performed (2 per live pivot)
	Rounds      int   // doubling rounds of the parallel schedule
	NumSCCs     int
	CombineWork int64
}

// Tarjan computes SCCs with Tarjan's algorithm (iterative). The returned
// labels are canonicalized so that each component is labeled by its
// smallest vertex. Baseline and test oracle.
func Tarjan(g *graph.Graph) Labels {
	n := g.N
	const undef = int32(-1)
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	comp := make(Labels, n)
	for i := range index {
		index[i] = undef
		comp[i] = undef
	}
	var stack []int32
	var next int32

	type frame struct {
		v  int32
		ei int32 // next out-edge offset to consider
	}
	var call []frame
	for root := 0; root < n; root++ {
		if index[root] != undef {
			continue
		}
		call = append(call[:0], frame{v: int32(root)})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			adv := false
			out := g.Out(int(v))
			for int(f.ei) < len(out) {
				w := out[f.ei]
				f.ei++
				if index[w] == undef {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
					adv = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if adv {
				continue
			}
			// v is finished.
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = v
					if w == v {
						break
					}
				}
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return Canonicalize(comp)
}

// Canonicalize relabels so each component's label is its smallest member.
func Canonicalize(l Labels) Labels {
	minOf := make(map[int32]int32, len(l))
	for v, c := range l {
		if m, ok := minOf[c]; !ok || int32(v) < m {
			minOf[c] = int32(v)
		}
	}
	out := make(Labels, len(l))
	for v, c := range l {
		out[v] = minOf[c]
	}
	return out
}

// SamePartition reports whether two labelings induce the same partition.
func SamePartition(a, b Labels) bool {
	if len(a) != len(b) {
		return false
	}
	ca, cb := Canonicalize(a), Canonicalize(b)
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

// CountSCCs returns the number of distinct components in l.
func CountSCCs(l Labels) int {
	seen := make(map[int32]struct{}, len(l))
	for _, c := range l {
		seen[c] = struct{}{}
	}
	return len(seen)
}

// Sequential runs the incremental Algorithm 7 with vertices in index
// (priority) order: vertex 0 is the first pivot.
func Sequential(g *graph.Graph) (Labels, Stats) {
	n := g.N
	var st Stats
	g.EnsureReverse()
	part := make([]int32, n) // current partition id of each live vertex
	scc := make(Labels, n)   // final SCC id, -1 until assigned
	for i := range scc {
		scc[i] = -1
	}
	nextPart := int32(1)

	fwd := make([]bool, n)
	bwd := make([]bool, n)
	var fwdList, bwdList []int32

	for i := 0; i < n; i++ {
		if scc[i] >= 0 {
			continue // S = ∅: already carved into an SCC
		}
		p := part[i]
		in := func(u int) bool { return scc[u] < 0 && part[u] == p }
		fwdList = fwdList[:0]
		bwdList = bwdList[:0]
		r1, w1 := graph.ReachFrom(g, i, true, in, func(u int) {
			fwd[u] = true
			fwdList = append(fwdList, int32(u))
		})
		r2, w2 := graph.ReachFrom(g, i, false, in, func(u int) {
			bwd[u] = true
			bwdList = append(bwdList, int32(u))
		})
		st.ReachWork += w1 + w2
		st.Visits += int64(r1 + r2)
		st.Searches += 2
		// SCC = fwd ∩ bwd; split the rest into fwd-only, bwd-only, neither.
		fwdOnly, bwdOnly := nextPart, nextPart+1
		nextPart += 2
		for _, u := range fwdList {
			if bwd[u] {
				scc[u] = int32(i)
			} else {
				part[u] = fwdOnly
			}
		}
		for _, u := range bwdList {
			if !fwd[u] {
				part[u] = bwdOnly
			}
		}
		// The "neither" part keeps partition id p: p was unique to S and
		// every other member of S was just relabeled or carved out.
		for _, u := range fwdList {
			fwd[u] = false
		}
		for _, u := range bwdList {
			bwd[u] = false
		}
	}
	st.NumSCCs = countRoots(scc)
	return scc, st
}

// countRoots counts the components of labels that name each component by
// one of its own vertices: the vertices labeled with themselves.
func countRoots(l Labels) int {
	c := 0
	for v, x := range l {
		if int(x) == v {
			c++
		}
	}
	return c
}
