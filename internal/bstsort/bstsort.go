// Package bstsort implements Section 3 of the paper: comparison sorting by
// incremental insertion into an unbalanced binary search tree.
//
// Three implementations are provided:
//
//   - SeqInsert: the sequential incremental algorithm (Algorithm 3 run
//     iteration by iteration).
//   - ParInsert: the Type 1 parallel version (Algorithm 3 with the for loop
//     parallel and line 7 a priority-write). All keys descend in lockstep,
//     one tree level per round; contended empty slots are won by the
//     earliest iteration, so the tree equals the sequential one
//     (Theorem 3.2) and the number of rounds equals the iteration
//     dependence depth, O(log n) whp (Lemma 3.1).
//   - ParInsertPrefix: the Type 3 variant sketched in Section 2.3 —
//     prefix-doubling rounds; each round's keys search the current tree in
//     parallel, keys colliding on the same empty slot are resolved in
//     iteration order.
//
// All versions produce the identical tree for the same key order.
package bstsort

import (
	"sync/atomic"

	"repro/internal/parallel"
	"repro/internal/sortutil"
)

// Tree is a binary search tree over the inserted keys; node i holds Keys[i]
// (the key of iteration i). Left/Right are node indices or -1.
type Tree struct {
	Keys  []float64
	Left  []int32
	Right []int32
	Root  int32 // -1 when empty
}

// Stats reports the work and depth counters of an insertion run.
type Stats struct {
	// Comparisons is the number of key comparisons, which is exactly the
	// number of iteration dependences (Corollary 2.4 bounds its expectation
	// by 2 n ln n).
	Comparisons int64
	// Rounds is the number of synchronous parallel rounds, the empirical
	// iteration dependence depth (0 for the sequential algorithm).
	Rounds int
	// Height is the final tree height in nodes (max root-to-leaf path).
	Height int
}

func newTree(keys []float64) *Tree {
	n := len(keys)
	t := &Tree{
		Keys:  keys,
		Left:  make([]int32, n),
		Right: make([]int32, n),
		Root:  -1,
	}
	for i := range t.Left {
		t.Left[i] = -1
		t.Right[i] = -1
	}
	return t
}

// SeqInsert inserts keys in index order into an initially empty BST and
// returns the tree with comparison counts.
func SeqInsert(keys []float64) (*Tree, Stats) {
	t := newTree(keys)
	var st Stats
	for i, k := range keys {
		if t.Root < 0 {
			t.Root = int32(i)
			continue
		}
		cur := t.Root
		for {
			st.Comparisons++
			if k < t.Keys[cur] {
				if t.Left[cur] < 0 {
					t.Left[cur] = int32(i)
					break
				}
				cur = t.Left[cur]
			} else {
				if t.Right[cur] < 0 {
					t.Right[cur] = int32(i)
					break
				}
				cur = t.Right[cur]
			}
		}
	}
	st.Height = t.Height()
	return t, st
}

// ParInsert runs the parallel Algorithm 3: every key starts at the root
// slot; in each synchronous round each live key priority-writes its
// iteration index into its current slot, the minimum index wins and is
// installed, and losers descend one level by comparing against the winner.
func ParInsert(keys []float64) (*Tree, Stats) {
	n := len(keys)
	t := newTree(keys)
	var st Stats
	if n == 0 {
		return t, st
	}
	// Slot s: 0 is the root pointer; node i owns slots 1+2i (left child)
	// and 2+2i (right child).
	slots := make([]parallel.PriorityCell, 2*n+1)
	leftSlot := func(i int32) int { return 1 + 2*int(i) }
	rightSlot := func(i int32) int { return 2 + 2*int(i) }

	at := make([]int, n) // current slot of key i
	live := make([]int, n)
	for i := range live {
		live[i] = i
	}
	var comparisons int64
	for len(live) > 0 {
		st.Rounds++
		// Write phase: all live keys offer their index at their slot.
		// Cheap uniform body (one priority write): chunks cost lane-local
		// claims on the stealing pool, so grain 32 is affordable and keeps
		// late rounds (few live keys) parallel.
		parallel.ForGrain(0, len(live), 32, func(k int) {
			i := live[k]
			slots[at[i]].Write(int64(i))
		})
		// Resolve phase: winners install; losers compare and descend.
		won := make([]bool, len(live))
		var roundCmps atomic.Int64
		parallel.Blocks(0, len(live), 32, func(lo, hi int) {
			var local int64
			for k := lo; k < hi; k++ {
				i := live[k]
				w, _ := slots[at[i]].Load()
				if w == int64(i) {
					won[k] = true
					continue
				}
				local++
				if keys[i] < keys[w] {
					at[i] = leftSlot(int32(w))
				} else {
					at[i] = rightSlot(int32(w))
				}
			}
			roundCmps.Add(local)
		})
		comparisons += roundCmps.Load()
		live = parallel.Pack(live, func(k int) bool { return !won[k] })
	}
	st.Comparisons = comparisons
	// Extract the tree from the slots.
	if w, ok := slots[0].Load(); ok {
		t.Root = int32(w)
	}
	parallel.For(0, n, func(i int) {
		if w, ok := slots[leftSlot(int32(i))].Load(); ok {
			t.Left[i] = int32(w)
		}
		if w, ok := slots[rightSlot(int32(i))].Load(); ok {
			t.Right[i] = int32(w)
		}
	})
	st.Height = t.Height()
	return t, st
}

// ParInsertPrefix is the Type 3 prefix-doubling BST insertion of Section
// 2.3: on round r the tree holds the first 2^{r-1} keys; the next 2^{r-1}
// keys all search it in parallel to find the empty slot they fall into;
// conflicts (several keys in one slot) are resolved by inserting that
// slot's keys sequentially in iteration order. The resulting tree equals
// the sequential tree.
func ParInsertPrefix(keys []float64) (*Tree, Stats) {
	n := len(keys)
	t := newTree(keys)
	var st Stats
	if n == 0 {
		return t, st
	}
	t.Root = 0
	var comparisons int64
	for lo := 1; lo < n; lo *= 2 {
		hi := lo * 2
		if hi > n {
			hi = n
		}
		st.Rounds++
		// Phase 1: all keys in [lo, hi) search the frozen tree.
		slot := make([]int64, hi-lo) // encoded slot: node*2 + side
		cmpCount := make([]int64, hi-lo)
		// Tree-search depth varies per key; grain 16 lets thieves split
		// off and even out runs of deep descents (claims are lane-local,
		// so the finer grain costs no shared-counter traffic).
		parallel.ForGrain(0, hi-lo, 16, func(k int) {
			i := lo + k
			cur := t.Root
			var c int64
			for {
				c++
				if keys[i] < t.Keys[cur] {
					if t.Left[cur] < 0 {
						slot[k] = int64(cur)*2 + 0
						break
					}
					cur = t.Left[cur]
				} else {
					if t.Right[cur] < 0 {
						slot[k] = int64(cur)*2 + 1
						break
					}
					cur = t.Right[cur]
				}
			}
			cmpCount[k] = c
		})
		comparisons += parallel.Sum(cmpCount)
		// Phase 2: group by slot (the tree's lo nodes own slots below
		// 2·lo); per slot, insert in iteration order.
		nslots := 2 * lo
		off, idx := sortutil.GroupDense(hi-lo, nslots, func(k int) int { return int(slot[k]) })
		nb := parallel.NumBlocks(nslots, 0)
		extra := make([]int64, nb)
		parallel.BlocksN(0, nslots, nb, func(b, slo, shi int) {
			var c int64
			for s := slo; s < shi; s++ {
				node, side0 := int32(s/2), s%2
				for _, k := range idx[off[s]:off[s+1]] { // increasing iteration order
					i := int32(lo) + k
					cur, side := node, side0
					// Descend within the subtree grown at the group's slot
					// (empty for the first key) until an empty child is
					// found.
					for {
						var childp *int32
						if side == 0 {
							childp = &t.Left[cur]
						} else {
							childp = &t.Right[cur]
						}
						if *childp < 0 {
							*childp = i
							break
						}
						cur = *childp
						c++
						if keys[i] < t.Keys[cur] {
							side = 0
						} else {
							side = 1
						}
					}
				}
			}
			extra[b] = c
		})
		comparisons += parallel.Sum(extra)
	}
	st.Comparisons = comparisons
	st.Height = t.Height()
	return t, st
}

// Height returns the height of the tree in nodes (empty tree: 0).
func (t *Tree) Height() int {
	if t.Root < 0 {
		return 0
	}
	// Iterative post-order depth computation to avoid recursion limits.
	type frame struct {
		node  int32
		state int8
	}
	depth := make([]int32, len(t.Keys))
	stack := []frame{{t.Root, 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		switch f.state {
		case 0:
			f.state = 1
			if t.Left[f.node] >= 0 {
				stack = append(stack, frame{t.Left[f.node], 0})
			}
		case 1:
			f.state = 2
			if t.Right[f.node] >= 0 {
				stack = append(stack, frame{t.Right[f.node], 0})
			}
		default:
			var l, r int32
			if c := t.Left[f.node]; c >= 0 {
				l = depth[c]
			}
			if c := t.Right[f.node]; c >= 0 {
				r = depth[c]
			}
			if l > r {
				depth[f.node] = l + 1
			} else {
				depth[f.node] = r + 1
			}
			stack = stack[:len(stack)-1]
		}
	}
	return int(depth[t.Root])
}

// InOrder returns the keys in sorted order by in-order traversal.
func (t *Tree) InOrder() []float64 {
	out := make([]float64, 0, len(t.Keys))
	if t.Root < 0 {
		return out
	}
	stack := make([]int32, 0, 64)
	cur := t.Root
	for cur >= 0 || len(stack) > 0 {
		for cur >= 0 {
			stack = append(stack, cur)
			cur = t.Left[cur]
		}
		cur = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, t.Keys[cur])
		cur = t.Right[cur]
	}
	return out
}

// Equal reports whether two trees have identical structure and keys.
func (t *Tree) Equal(o *Tree) bool {
	if len(t.Keys) != len(o.Keys) || t.Root != o.Root {
		return false
	}
	for i := range t.Keys {
		if t.Keys[i] != o.Keys[i] || t.Left[i] != o.Left[i] || t.Right[i] != o.Right[i] {
			return false
		}
	}
	return true
}

// Sort returns the keys in sorted order using the parallel incremental BST;
// the input is not modified. This is the package's headline public entry.
func Sort(keys []float64) []float64 {
	cp := make([]float64, len(keys))
	copy(cp, keys)
	t, _ := ParInsert(cp)
	return t.InOrder()
}
