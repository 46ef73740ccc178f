package graph

import (
	"sort"
	"testing"

	"repro/internal/rng"
)

func sortedCopy(xs []int32) []int32 {
	out := append([]int32(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestParReachMatchesSequential(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(500)
		g := GnmDirected(r, n, 3*n, false)
		src := r.Intn(n)
		for _, forward := range []bool{true, false} {
			var seq []int32
			ReachFrom(g, src, forward, func(int) bool { return true }, func(u int) {
				seq = append(seq, int32(u))
			})
			par, _ := ParReachFrom(g, src, forward, func(int) bool { return true })
			a, b := sortedCopy(seq), sortedCopy(par)
			if len(a) != len(b) {
				t.Fatalf("trial %d fwd=%v: seq reached %d, par %d", trial, forward, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("trial %d fwd=%v: reach sets differ at %d", trial, forward, i)
				}
			}
		}
	}
}

func TestParReachRestriction(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}}, false)
	vis, _ := ParReachFrom(g, 0, true, func(u int) bool { return u != 2 })
	if len(vis) != 2 { // 0 and 1; 2 blocks the rest
		t.Fatalf("restricted reach = %v", vis)
	}
	vis, _ = ParReachFrom(g, 0, true, func(u int) bool { return false })
	if vis != nil {
		t.Fatal("excluded source must yield nil")
	}
}

func TestParReachExactlyOnce(t *testing.T) {
	// Dense graph with many parallel discovery paths: every vertex must
	// appear exactly once.
	r := rng.New(2)
	g := GnmDirected(r, 300, 6000, false)
	vis, _ := ParReachFrom(g, 0, true, func(int) bool { return true })
	seen := map[int32]bool{}
	for _, v := range vis {
		if seen[v] {
			t.Fatalf("vertex %d visited twice", v)
		}
		seen[v] = true
	}
}

func TestParReachEdgeCount(t *testing.T) {
	// On a simple path, exactly n-1 edges are scanned.
	g := ChainDAG(50)
	_, edges := ParReachFrom(g, 0, true, func(int) bool { return true })
	if edges != 49 {
		t.Fatalf("edges scanned = %d, want 49", edges)
	}
}

// bfsOrder is the sequential level-by-level reference for ParReachFrom's
// visit order: a FIFO search in which each vertex is appended when its
// earliest-queued discoverer scans it, in that discoverer's adjacency
// order.
func bfsOrder(g *Graph, src int, forward bool, in func(u int) bool) []int32 {
	if !in(src) {
		return nil
	}
	seen := make([]bool, g.N)
	seen[src] = true
	order := []int32{int32(src)}
	for head := 0; head < len(order); head++ {
		for _, v := range g.Neighbors(int(order[head]), forward) {
			if !seen[v] && in(int(v)) {
				seen[v] = true
				order = append(order, v)
			}
		}
	}
	return order
}

// TestParReachFromOrderMatchesBFS pins ParReachFrom's visit order, not
// just its visit set: over random directed graphs of varying density, in
// both directions and with and without a membership restriction, the
// order equals the sequential BFS order at whatever worker count runs
// the test.
func TestParReachFromOrderMatchesBFS(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 240; trial++ {
		n := 2 + r.Intn(600)
		g := GnmDirected(r, n, (1+r.Intn(6))*n, false)
		src := r.Intn(n)
		excluded := make([]bool, n)
		if trial%2 == 1 {
			for u := range excluded {
				excluded[u] = r.Intn(8) == 0
			}
			excluded[src] = false
		}
		in := func(u int) bool { return !excluded[u] }
		for _, forward := range []bool{true, false} {
			got, _ := ParReachFrom(g, src, forward, in)
			want := bfsOrder(g, src, forward, in)
			if len(got) != len(want) {
				t.Fatalf("trial %d fwd=%v: %d visits, BFS reaches %d", trial, forward, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d fwd=%v: visit %d is vertex %d, BFS order has %d",
						trial, forward, i, got[i], want[i])
				}
			}
		}
	}
}
