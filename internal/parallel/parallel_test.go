package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 10000} {
		hit := make([]int32, n)
		For(0, n, func(i int) { atomic.AddInt32(&hit[i], 1) })
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("n=%d: index %d hit %d times", n, i, h)
			}
		}
	}
}

func TestForNegativeAndEmptyRange(t *testing.T) {
	called := false
	//ridtvet:ignore parclosure the range is empty, so the body never runs
	For(5, 5, func(i int) { called = true })
	//ridtvet:ignore parclosure the range is inverted, so the body never runs
	For(7, 3, func(i int) { called = true })
	if called {
		t.Fatal("body called on empty range")
	}
}

func TestForGrainOffsetRange(t *testing.T) {
	var sum atomic.Int64
	ForGrain(10, 20, 3, func(i int) { sum.Add(int64(i)) })
	if sum.Load() != 145 { // 10+...+19
		t.Fatalf("sum = %d, want 145", sum.Load())
	}
}

func TestBlocksPartition(t *testing.T) {
	n := 100000
	var total atomic.Int64
	Blocks(0, n, 0, func(lo, hi int) {
		if lo >= hi {
			panic("empty block")
		}
		total.Add(int64(hi - lo))
	})
	if total.Load() != int64(n) {
		t.Fatalf("blocks cover %d items, want %d", total.Load(), n)
	}
}

func TestDo(t *testing.T) {
	var a, b, c int
	Do(func() { a = 1 }, func() { b = 2 }, func() { c = 3 })
	if a != 1 || b != 2 || c != 3 {
		t.Fatalf("Do results: %d %d %d", a, b, c)
	}
	Do() // no-op
	ran := false
	Do(func() { ran = true })
	if !ran {
		t.Fatal("single-fn Do did not run")
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{0, 1, 5, 1000, 100000} {
		got := SumFunc(0, n, func(i int) int64 { return int64(i) })
		want := int64(n) * int64(n-1) / 2
		if n == 0 {
			want = 0
		}
		if got != want {
			t.Fatalf("n=%d: sum=%d want %d", n, got, want)
		}
	}
}

func TestReduceOrderSensitive(t *testing.T) {
	// String concatenation is associative but not commutative; Reduce must
	// combine blocks in index order.
	n := 5000
	got := Reduce(0, n, "", func(i int) string {
		return string(rune('a' + i%26))
	}, func(a, b string) string { return a + b })
	want := make([]byte, n)
	for i := range want {
		want[i] = byte('a' + i%26)
	}
	if got != string(want) {
		t.Fatal("Reduce is not preserving index order")
	}
}

func TestMinMaxCountAnyAll(t *testing.T) {
	xs := []int{4, -2, 7, 0}
	at := func(i int) int { return xs[i] }
	if m := Reduce(1, len(xs), xs[0], at, func(a, b int) int { return min(a, b) }); m != -2 {
		t.Fatalf("min=%d", m)
	}
	if m := Reduce(1, len(xs), xs[0], at, func(a, b int) int { return max(a, b) }); m != 7 {
		t.Fatalf("max=%d", m)
	}
}

func TestScanExclusive(t *testing.T) {
	for _, n := range []int{0, 1, 3, 1000, 65536} {
		xs := make([]int, n)
		for i := range xs {
			xs[i] = i + 1
		}
		total := PrefixSums(xs)
		if want := n * (n + 1) / 2; total != want {
			t.Fatalf("n=%d: total=%d want %d", n, total, want)
		}
		acc := 0
		for i := 0; i < n; i++ {
			if xs[i] != acc {
				t.Fatalf("n=%d: xs[%d]=%d want %d", n, i, xs[i], acc)
			}
			acc += i + 1
		}
	}
}

func TestScanQuickMatchesSequential(t *testing.T) {
	f := func(xs []int32) bool {
		a := make([]int64, len(xs))
		b := make([]int64, len(xs))
		for i, x := range xs {
			a[i] = int64(x)
			b[i] = int64(x)
		}
		tot := PrefixSums(a)
		acc := int64(0)
		for i := range b {
			v := b[i]
			b[i] = acc
			acc += v
		}
		if tot != acc {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPack(t *testing.T) {
	n := 10000
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	evens := Pack(xs, func(i int) bool { return xs[i]%2 == 0 })
	if len(evens) != n/2 {
		t.Fatalf("len=%d want %d", len(evens), n/2)
	}
	for k, v := range evens {
		if v != 2*k {
			t.Fatalf("evens[%d]=%d want %d", k, v, 2*k)
		}
	}
	if got := Pack(xs, func(int) bool { return false }); len(got) != 0 {
		t.Fatal("pack of nothing should be empty")
	}
}

func TestPackInto(t *testing.T) {
	// Equivalence with Pack across sizes, including reuse of dst and
	// counts round over round.
	var dst []uint64
	var counts []int
	for _, n := range []int{0, 1, 5, 100, 4096, 100000} {
		xs := make([]uint64, n)
		for i := range xs {
			xs[i] = uint64(i * 7)
		}
		keep := func(i int) bool { return xs[i]%3 == 0 }
		want := Pack(xs, keep)
		dst, counts = PackInto(dst, xs, keep, counts)
		if len(dst) != len(want) {
			t.Fatalf("n=%d: len=%d want %d", n, len(dst), len(want))
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("n=%d: dst[%d]=%d want %d", n, i, dst[i], want[i])
			}
		}
	}
}

func TestPackIntoSteadyStateAllocs(t *testing.T) {
	// Once dst and counts have plateaued, PackInto itself allocates
	// nothing; on a multi-worker run each inner loop costs the scheduler's
	// O(1) task state, which is still independent of n.
	n := 1 << 14
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = uint64(i)
	}
	keep := func(i int) bool { return xs[i]%2 == 0 }
	dst := make([]uint64, 0, n)
	counts := make([]int, 0, 1024)
	allocs := testing.AllocsPerRun(50, func() {
		dst, counts = PackInto(dst, xs, keep, counts)
	})
	// The block-pass closures escape into the scheduler's task state: a
	// small constant per call (two loop bodies, plus loopTask state on
	// multi-worker runs), never O(n).
	if allocs > 16 {
		t.Fatalf("PackInto allocs/op = %v, want O(1) <= 16 (GOMAXPROCS=%d)", allocs, MaxProcs())
	}
}

func TestPriorityCell(t *testing.T) {
	var c PriorityCell
	if _, ok := c.Load(); ok {
		t.Fatal("zero cell should be empty")
	}
	if !c.Write(5) {
		t.Fatal("first write should win")
	}
	if c.Write(9) {
		t.Fatal("larger priority should lose")
	}
	if !c.Write(5) {
		t.Fatal("equal priority reports winning")
	}
	if !c.Write(2) {
		t.Fatal("smaller priority should win")
	}
	if p, ok := c.Load(); !ok || p != 2 {
		t.Fatalf("load=(%d,%v) want (2,true)", p, ok)
	}
	c.Reset()
	if _, ok := c.Load(); ok {
		t.Fatal("reset cell should be empty")
	}
}

func TestPriorityCellConcurrent(t *testing.T) {
	// Hammer one cell from many goroutines; the minimum must win.
	var c PriorityCell
	n := 1000
	For(0, n, func(i int) {
		c.Write(int64(n - i))
	})
	if p, ok := c.Load(); !ok || p != 1 {
		t.Fatalf("winner=%d want 1", p)
	}
}

func TestPriorityCellZeroPriority(t *testing.T) {
	var c PriorityCell
	if !c.Write(0) {
		t.Fatal("priority 0 must be writable")
	}
	if p, ok := c.Load(); !ok || p != 0 {
		t.Fatalf("load=(%d,%v) want (0,true)", p, ok)
	}
}
