package bstsort

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func randKeys(seed uint64, n int) []float64 {
	r := rng.New(seed)
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = r.Float64()
	}
	return keys
}

func TestSeqInsertSorts(t *testing.T) {
	for _, n := range []int{0, 1, 2, 10, 1000} {
		keys := randKeys(uint64(n)+1, n)
		tree, _ := SeqInsert(keys)
		got := tree.InOrder()
		want := append([]float64(nil), keys...)
		sort.Float64s(want)
		if len(got) != n {
			t.Fatalf("n=%d: in-order has %d keys", n, len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: position %d: %v vs %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestParInsertSameTree(t *testing.T) {
	// Theorem 3.2: the parallel version generates the same tree.
	for _, n := range []int{1, 2, 3, 17, 256, 5000} {
		keys := randKeys(uint64(n)*3+1, n)
		seqTree, _ := SeqInsert(keys)
		parTree, _ := ParInsert(keys)
		if !seqTree.Equal(parTree) {
			t.Fatalf("n=%d: parallel tree differs from sequential", n)
		}
	}
}

func TestParInsertPrefixSameTree(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 256, 5000} {
		keys := randKeys(uint64(n)*7+5, n)
		seqTree, _ := SeqInsert(keys)
		prefTree, _ := ParInsertPrefix(keys)
		if !seqTree.Equal(prefTree) {
			t.Fatalf("n=%d: prefix-doubling tree differs from sequential", n)
		}
	}
}

func TestRoundsEqualTreeHeight(t *testing.T) {
	// Each ParInsert round advances every live key one level, so the round
	// count is exactly the tree height (the iteration dependence depth).
	for _, n := range []int{10, 100, 2000} {
		keys := randKeys(uint64(n)+13, n)
		tree, st := ParInsert(keys)
		if st.Rounds != tree.Height() {
			t.Fatalf("n=%d: rounds=%d height=%d", n, st.Rounds, tree.Height())
		}
		if st.Height != tree.Height() {
			t.Fatalf("stats height mismatch")
		}
	}
}

func TestDepthLogarithmic(t *testing.T) {
	// Lemma 3.1: dependence depth O(log n) whp. Random BSTs have expected
	// height ~4.31 log2 n; test a generous 8x bound.
	for _, n := range []int{1 << 10, 1 << 14} {
		keys := randKeys(uint64(n), n)
		_, st := ParInsert(keys)
		if limit := int(8 * math.Log2(float64(n))); st.Rounds > limit {
			t.Fatalf("n=%d: rounds %d exceed %d", n, st.Rounds, limit)
		}
	}
}

func TestComparisonsMatchSequential(t *testing.T) {
	// The parallel lockstep descent and the prefix-doubling rounds perform
	// exactly the sequential comparison count (each key walks its final
	// search path once).
	for _, n := range []int{10, 500, 4000, 16384} {
		keys := randKeys(uint64(n)*11+3, n)
		_, seqSt := SeqInsert(keys)
		_, parSt := ParInsert(keys)
		_, preSt := ParInsertPrefix(keys)
		if seqSt.Comparisons != parSt.Comparisons || seqSt.Comparisons != preSt.Comparisons {
			t.Fatalf("n=%d: comparisons seq=%d par=%d prefix=%d", n, seqSt.Comparisons, parSt.Comparisons, preSt.Comparisons)
		}
	}
}

func TestComparisonsWithinCorollary24(t *testing.T) {
	// Corollary 2.4: expected #dependences (comparisons) <= 2 n ln n.
	n := 1 << 14
	trials := 5
	var total int64
	for trial := 0; trial < trials; trial++ {
		keys := randKeys(uint64(trial)*101+7, n)
		_, st := SeqInsert(keys)
		total += st.Comparisons
	}
	avg := float64(total) / float64(trials)
	bound := 2 * float64(n) * math.Log(float64(n))
	if avg > bound {
		t.Fatalf("avg comparisons %.0f exceed 2 n ln n = %.0f", avg, bound)
	}
}

func TestSortedInputWorstCase(t *testing.T) {
	// Sorted insertion order: the tree is a path; depth is n. This checks
	// the implementations handle the degenerate case (no randomness).
	n := 300
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = float64(i)
	}
	seqTree, seqSt := SeqInsert(keys)
	parTree, parSt := ParInsert(keys)
	if !seqTree.Equal(parTree) {
		t.Fatal("sorted input: trees differ")
	}
	if parSt.Rounds != n {
		t.Fatalf("sorted input should need n rounds, got %d", parSt.Rounds)
	}
	if seqSt.Comparisons != int64(n)*int64(n-1)/2 {
		t.Fatalf("sorted input comparisons=%d", seqSt.Comparisons)
	}
}

func TestDuplicateKeys(t *testing.T) {
	keys := []float64{2, 1, 2, 3, 2, 1}
	seqTree, _ := SeqInsert(keys)
	parTree, _ := ParInsert(keys)
	prefTree, _ := ParInsertPrefix(keys)
	if !seqTree.Equal(parTree) || !seqTree.Equal(prefTree) {
		t.Fatal("duplicate keys: trees differ")
	}
	got := seqTree.InOrder()
	want := append([]float64(nil), keys...)
	sort.Float64s(want)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("duplicates not sorted: %v", got)
		}
	}
}

func TestSortPublicAPI(t *testing.T) {
	keys := randKeys(77, 1234)
	orig := append([]float64(nil), keys...)
	got := Sort(keys)
	if !sort.Float64sAreSorted(got) {
		t.Fatal("Sort output not sorted")
	}
	for i := range keys {
		if keys[i] != orig[i] {
			t.Fatal("Sort must not modify its input")
		}
	}
}

func TestQuickSortsAnything(t *testing.T) {
	f := func(raw []float32) bool {
		keys := make([]float64, len(raw))
		for i, x := range raw {
			if math.IsNaN(float64(x)) {
				return true // NaN keys are out of contract
			}
			keys[i] = float64(x)
		}
		got := Sort(keys)
		return sort.Float64sAreSorted(got) && len(got) == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHeightEmptyAndOne(t *testing.T) {
	tEmpty, _ := SeqInsert(nil)
	if tEmpty.Height() != 0 {
		t.Fatal("empty height")
	}
	tOne, _ := SeqInsert([]float64{5})
	if tOne.Height() != 1 {
		t.Fatal("single height")
	}
}
