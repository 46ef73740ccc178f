package sortutil

import (
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

func TestSemisortGroups(t *testing.T) {
	n := 10000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i % 37)
	}
	groups := Semisort(n, func(i int) uint64 { return keys[i] })
	if len(groups) != 37 {
		t.Fatalf("groups=%d want 37", len(groups))
	}
	seen := 0
	for _, g := range groups {
		seen += len(g.Indices)
		for k, idx := range g.Indices {
			if keys[idx] != g.Key {
				t.Fatalf("index %d in wrong group %d", idx, g.Key)
			}
			if k > 0 && g.Indices[k] <= g.Indices[k-1] {
				t.Fatal("group indices must be increasing")
			}
		}
	}
	if seen != n {
		t.Fatalf("semisort covered %d of %d records", seen, n)
	}
}

func TestSemisortSingletonAndEmpty(t *testing.T) {
	if g := Semisort(0, func(int) uint64 { return 0 }); g != nil {
		t.Fatal("empty semisort should be nil")
	}
	g := Semisort(1, func(int) uint64 { return 99 })
	if len(g) != 1 || g[0].Key != 99 || len(g[0].Indices) != 1 {
		t.Fatalf("singleton semisort: %+v", g)
	}
}

func TestSemisortAllDistinctKeys(t *testing.T) {
	n := 5000
	groups := Semisort(n, func(i int) uint64 { return uint64(i) * 2654435761 })
	if len(groups) != n {
		t.Fatalf("distinct keys: groups=%d want %d", len(groups), n)
	}
}

func TestSemisortQuick(t *testing.T) {
	f := func(keys []uint8) bool {
		groups := Semisort(len(keys), func(i int) uint64 { return uint64(keys[i]) })
		count := map[uint64]int{}
		for _, g := range groups {
			if _, dup := count[g.Key]; dup {
				return false // duplicate group key
			}
			count[g.Key] = len(g.Indices)
		}
		want := map[uint64]int{}
		for _, k := range keys {
			want[uint64(k)]++
		}
		if len(count) != len(want) {
			return false
		}
		for k, c := range want {
			if count[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
