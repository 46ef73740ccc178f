package sortutil

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func intLess(a, b int) bool { return a < b }

func TestSortSmall(t *testing.T) {
	for _, xs := range [][]int{nil, {1}, {2, 1}, {3, 1, 2}, {5, 5, 5}} {
		cp := append([]int(nil), xs...)
		Sort(cp, intLess)
		if !sort.IntsAreSorted(cp) {
			t.Fatalf("not sorted: %v", cp)
		}
	}
}

func TestSortLargeRandom(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{4095, 4096, 4097, 100000, 1 << 18} {
		xs := make([]int, n)
		for i := range xs {
			xs[i] = r.Intn(1000)
		}
		want := append([]int(nil), xs...)
		sort.Ints(want)
		Sort(xs, intLess)
		for i := range xs {
			if xs[i] != want[i] {
				t.Fatalf("n=%d: position %d: %d vs %d", n, i, xs[i], want[i])
			}
		}
	}
}

func TestSortAlreadySortedAndReversed(t *testing.T) {
	n := 50000
	asc := make([]int, n)
	desc := make([]int, n)
	for i := range asc {
		asc[i] = i
		desc[i] = n - i
	}
	Sort(asc, intLess)
	Sort(desc, intLess)
	if !sort.IntsAreSorted(asc) || !sort.IntsAreSorted(desc) {
		t.Fatal("sorted/reversed inputs mishandled")
	}
}

func TestSortCustomLess(t *testing.T) {
	type kv struct{ k, v int }
	n := 20000
	r := rng.New(2)
	xs := make([]kv, n)
	for i := range xs {
		xs[i] = kv{k: r.Intn(100), v: i}
	}
	Sort(xs, func(a, b kv) bool { return a.k > b.k }) // descending by k
	for i := 1; i < n; i++ {
		if xs[i].k > xs[i-1].k {
			t.Fatal("descending order violated")
		}
	}
}

func TestSortQuick(t *testing.T) {
	f := func(xs []int16) bool {
		a := make([]int, len(xs))
		for i, x := range xs {
			a[i] = int(x)
		}
		b := append([]int(nil), a...)
		Sort(a, intLess)
		sort.Ints(b)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// groupOracle is a plain sequential counting sort: the reference
// GroupDense must match exactly, whatever its block split.
func groupOracle(keys []int, nkeys int) (off, idx []int32) {
	off = make([]int32, nkeys+1)
	for _, k := range keys {
		off[k+1]++
	}
	for k := 0; k < nkeys; k++ {
		off[k+1] += off[k]
	}
	next := append([]int32(nil), off[:nkeys]...)
	idx = make([]int32, len(keys))
	for i, k := range keys {
		idx[next[k]] = int32(i)
		next[k]++
	}
	return off, idx
}

// checkGroupDense checks GroupDense on keys: the CSR shape, every index
// exactly once and in its key's group, ascending order inside each group,
// and equality with the oracle.
func checkGroupDense(t *testing.T, name string, keys []int, nkeys int) {
	t.Helper()
	n := len(keys)
	off, idx := GroupDense(n, nkeys, func(i int) int { return keys[i] })
	if len(off) != nkeys+1 || len(idx) != n {
		t.Fatalf("%s: len(off)=%d len(idx)=%d, want %d and %d", name, len(off), len(idx), nkeys+1, n)
	}
	if off[0] != 0 || int(off[nkeys]) != n {
		t.Fatalf("%s: off[0]=%d off[nkeys]=%d, want 0 and %d", name, off[0], off[nkeys], n)
	}
	seen := make([]bool, n)
	for k := 0; k < nkeys; k++ {
		if off[k] > off[k+1] {
			t.Fatalf("%s: off decreases at key %d", name, k)
		}
		for j := off[k]; j < off[k+1]; j++ {
			i := idx[j]
			if seen[i] {
				t.Fatalf("%s: index %d appears twice", name, i)
			}
			seen[i] = true
			if keys[i] != k {
				t.Fatalf("%s: index %d (key %d) in group %d", name, i, keys[i], k)
			}
			if j > off[k] && idx[j-1] >= i {
				t.Fatalf("%s: group %d not ascending: %d then %d", name, k, idx[j-1], i)
			}
		}
	}
	wantOff, wantIdx := groupOracle(keys, nkeys)
	if !slices.Equal(off, wantOff) || !slices.Equal(idx, wantIdx) {
		t.Fatalf("%s: differs from the sequential counting sort", name)
	}
}

// TestGroupDense covers the shapes the Type 3 combines produce. The large
// cases (n at least twice max(nkeys, groupGrain)) take the blocked path
// whenever the test runs with more than one worker.
func TestGroupDense(t *testing.T) {
	r := rng.New(3)
	gen := func(n int, key func(i int) int) []int {
		keys := make([]int, n)
		for i := range keys {
			keys[i] = key(i)
		}
		return keys
	}
	perm := r.Perm(5000)
	cases := []struct {
		name  string
		keys  []int
		nkeys int
	}{
		{"empty", nil, 0},
		{"empty-keys", nil, 7},
		{"single", []int{4}, 9},
		{"one-key", gen(20000, func(int) int { return 0 }), 1},
		{"all-distinct", gen(5000, func(i int) int { return perm[i] }), 5000},
		{"skewed", gen(300000, func(i int) int {
			if r.Intn(2) == 0 {
				return 0 // a hub collects half the records
			}
			return r.Intn(1 + r.Intn(2000))
		}), 2000},
		{"nkeys>n", gen(1000, func(int) int { return r.Intn(50000) }), 50000},
		{"n>>nkeys", gen(1<<18, func(i int) int { return i % 37 }), 37},
		{"n>>nkeys-random", gen(1<<17, func(int) int { return r.Intn(500) }), 500},
	}
	for _, c := range cases {
		checkGroupDense(t, c.name, c.keys, c.nkeys)
	}
}

func TestGroupDenseQuick(t *testing.T) {
	f := func(raw []uint8, width uint8) bool {
		nkeys := int(width) + 1
		keys := make([]int, len(raw))
		for i, k := range raw {
			keys[i] = int(k) % nkeys
		}
		checkGroupDense(t, "quick", keys, nkeys)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
