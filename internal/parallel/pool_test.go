package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// withProcs raises GOMAXPROCS to at least p for the duration of the test so
// the pool path is exercised even on single-core machines, restoring the
// previous value afterwards.
func withProcs(t *testing.T, p int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	if prev < p {
		runtime.GOMAXPROCS(p)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

func TestChunkCounts(t *testing.T) {
	withProcs(t, 4)
	// Small-n cases below the chunksPerWorker*P cap hold for any P >= 1:
	// the count is ceil(n/grain), so n just above the grain splits in two
	// instead of serializing (the old grain-based formula ran n <= grain
	// loops sequentially and gave n = grain+1 a pathological 1-item tail).
	cases := []struct{ n, grain, want int }{
		{0, 0, 0},
		{1, 0, 1},
		{DefaultGrain, 0, 1},
		{DefaultGrain + 1, 0, 2},
		{4 * DefaultGrain, 0, 4},
		{8 * DefaultGrain, 0, 8},
		{100, 50, 2},
		{101, 50, 3},
		{7, 2, 4},
	}
	for _, c := range cases {
		if got := NumBlocks(c.n, c.grain); got != c.want {
			t.Errorf("NumBlocks(%d, %d) = %d, want %d", c.n, c.grain, got, c.want)
		}
	}
	// Large n is capped at chunksPerWorker chunks per worker.
	if got, want := NumBlocks(1<<30, 0), chunksPerWorker*MaxProcs(); got != want {
		t.Errorf("NumBlocks(1<<30, 0) = %d, want cap %d", got, want)
	}
	// Blocks must invoke its body exactly NumBlocks times with near-equal
	// block sizes (difference at most one).
	for _, c := range []struct{ n, grain int }{{1025, 0}, {100000, 16}, {7, 2}} {
		var calls atomic.Int64
		minSz, maxSz := 1<<62, 0
		var mu spinLock
		Blocks(0, c.n, c.grain, func(lo, hi int) {
			calls.Add(1)
			mu.lock()
			if hi-lo < minSz {
				minSz = hi - lo //ridtvet:ignore parclosure serialized by mu, held across the update
			}
			if hi-lo > maxSz {
				maxSz = hi - lo //ridtvet:ignore parclosure serialized by mu, held across the update
			}
			mu.unlock()
		})
		if int(calls.Load()) != NumBlocks(c.n, c.grain) {
			t.Errorf("n=%d grain=%d: %d calls, want %d", c.n, c.grain, calls.Load(), NumBlocks(c.n, c.grain))
		}
		if maxSz-minSz > 1 {
			t.Errorf("n=%d grain=%d: block sizes range [%d, %d], want near-equal", c.n, c.grain, minSz, maxSz)
		}
	}
}

// spinLock is a tiny test-local mutex so the block-size bookkeeping above
// does not need sync imported just for one lock.
type spinLock struct{ v atomic.Bool }

func (m *spinLock) lock() {
	for !m.v.CompareAndSwap(false, true) {
		runtime.Gosched()
	}
}
func (m *spinLock) unlock() { m.v.Store(false) }

func TestBlocksIndexed(t *testing.T) {
	withProcs(t, 4)
	n := 100000
	nb := NumBlocks(n, 16)
	seen := make([]int64, nb)
	var covered atomic.Int64
	BlocksIndexed(0, n, 16, func(b, lo, hi int) {
		atomic.AddInt64(&seen[b], 1)
		covered.Add(int64(hi - lo))
	})
	if covered.Load() != int64(n) {
		t.Fatalf("covered %d items, want %d", covered.Load(), n)
	}
	for b, c := range seen {
		if c != 1 {
			t.Fatalf("block %d invoked %d times", b, c)
		}
	}
}

func TestBlocksN(t *testing.T) {
	withProcs(t, 4)
	// BlocksN pins the partition to the caller's count regardless of
	// GOMAXPROCS, clamping nb into [1, n].
	for _, c := range []struct{ n, nb, want int }{
		{100, 7, 7}, {100, 1, 1}, {5, 100, 5}, {100, 0, 1}, {0, 4, 0},
	} {
		var calls atomic.Int64
		var covered atomic.Int64
		BlocksN(0, c.n, c.nb, func(b, lo, hi int) {
			calls.Add(1)
			covered.Add(int64(hi - lo))
			if b < 0 || b >= c.want {
				t.Errorf("n=%d nb=%d: block index %d out of range", c.n, c.nb, b)
			}
		})
		if int(calls.Load()) != c.want {
			t.Errorf("BlocksN(0, %d, %d): %d calls, want %d", c.n, c.nb, calls.Load(), c.want)
		}
		if int(covered.Load()) != c.n {
			t.Errorf("BlocksN(0, %d, %d): covered %d, want %d", c.n, c.nb, covered.Load(), c.n)
		}
	}
}

func mustPanicWith(t *testing.T, name string, want any, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != want {
			t.Errorf("%s: recovered %v, want %v", name, r, want)
		}
	}()
	fn()
	t.Errorf("%s: returned without panicking", name)
}

func TestPanicPropagation(t *testing.T) {
	withProcs(t, 4)
	// A panic in any worker-run chunk must surface, with its original
	// value, on the goroutine that invoked the loop — not crash the
	// process from inside a pool worker.
	mustPanicWith(t, "ForGrain", "boom-for", func() {
		ForGrain(0, 100000, 16, func(i int) {
			if i == 54321 {
				panic("boom-for")
			}
		})
	})
	mustPanicWith(t, "Blocks", "boom-blocks", func() {
		Blocks(0, 100000, 16, func(lo, hi int) {
			if lo <= 77777 && 77777 < hi {
				panic("boom-blocks")
			}
		})
	})
	mustPanicWith(t, "Do", "boom-do", func() {
		Do(func() {}, func() { panic("boom-do") }, func() {})
	})
	mustPanicWith(t, "Reduce", "boom-reduce", func() {
		SumFunc(0, 100000, func(i int) int {
			if i == 12345 {
				panic("boom-reduce")
			}
			return i
		})
	})
	// Nested: a panic two levels down still reaches the outermost caller.
	mustPanicWith(t, "nested", "boom-nested", func() {
		Do(func() {
			Blocks(0, 10000, 16, func(lo, hi int) {
				For(lo, hi, func(i int) {
					if i == 9999 {
						panic("boom-nested")
					}
				})
			})
		})
	})
}

func TestPanicFirstValueWins(t *testing.T) {
	withProcs(t, 4)
	// When many chunks panic, exactly one original value is re-raised.
	defer func() {
		r := recover()
		i, ok := r.(int)
		if !ok || i < 0 || i >= 100000 {
			t.Errorf("recovered %v, want an iteration index", r)
		}
	}()
	ForGrain(0, 100000, 16, func(i int) { panic(i) })
	t.Error("returned without panicking")
}

func TestPoolSurvivesPanics(t *testing.T) {
	withProcs(t, 4)
	for round := 0; round < 3; round++ {
		func() {
			defer func() { recover() }()
			ForGrain(0, 100000, 16, func(i int) { panic("die") })
		}()
		// The pool must still schedule correctly after a cancelled loop.
		var sum atomic.Int64
		ForGrain(0, 100000, 16, func(i int) { sum.Add(1) })
		if sum.Load() != 100000 {
			t.Fatalf("round %d: loop after panic covered %d/100000 iterations", round, sum.Load())
		}
	}
}

func TestNestedParallelismBoundedGoroutines(t *testing.T) {
	withProcs(t, 4)
	// Prime the pool so the worker goroutines are counted in the baseline.
	For(0, 100000, func(int) {})
	base := runtime.NumGoroutine()
	// Bound: the scheduler itself may add at most the pool workers (already
	// running) — nesting must NOT spawn per-chunk goroutines. Everything on
	// top of base is test overhead slack.
	limit := base + 2*MaxProcs() + 4

	var maxSeen atomic.Int64
	var total atomic.Int64
	outer := func(mult int64) func() {
		return func() {
			Blocks(0, 3000, 10, func(lo, hi int) {
				For(lo, hi, func(i int) {
					total.Add(mult)
					if i%64 == 0 {
						g := int64(runtime.NumGoroutine())
						for {
							cur := maxSeen.Load()
							if g <= cur || maxSeen.CompareAndSwap(cur, g) {
								break
							}
						}
					}
				})
			})
		}
	}
	Do(outer(1), outer(10), outer(100))
	if got, want := total.Load(), int64(3000*(1+10+100)); got != want {
		t.Fatalf("nested loops computed %d, want %d", got, want)
	}
	if int(maxSeen.Load()) > limit {
		t.Fatalf("goroutine count reached %d during nested loop, want <= %d (O(GOMAXPROCS), not O(n/grain))", maxSeen.Load(), limit)
	}
}

func TestGoroutineCountFlatLoop(t *testing.T) {
	withProcs(t, 4)
	For(0, 1000, func(int) {}) // start the pool
	base := runtime.NumGoroutine()
	limit := base + 2*MaxProcs() + 4
	var maxSeen atomic.Int64
	// 1<<20 iterations at grain 16 would be 65536 goroutines under
	// per-call spawning; the pool must stay flat.
	ForGrain(0, 1<<20, 16, func(i int) {
		if i%4096 == 0 {
			g := int64(runtime.NumGoroutine())
			for {
				cur := maxSeen.Load()
				if g <= cur || maxSeen.CompareAndSwap(cur, g) {
					break
				}
			}
		}
	})
	if int(maxSeen.Load()) > limit {
		t.Fatalf("goroutine count reached %d during flat loop, want <= %d", maxSeen.Load(), limit)
	}
}

func TestNestedResultsCorrect(t *testing.T) {
	withProcs(t, 4)
	// Nest For inside Blocks inside Do and check the computed values, not
	// just coverage: out[i] = i*i via an inner loop per block.
	n := 50000
	out := make([]int64, n)
	Do(
		func() {
			Blocks(0, n/2, 8, func(lo, hi int) {
				For(lo, hi, func(i int) { out[i] = int64(i) * int64(i) })
			})
		},
		func() {
			Blocks(n/2, n, 8, func(lo, hi int) {
				For(lo, hi, func(i int) { out[i] = int64(i) * int64(i) })
			})
		},
	)
	for i := range out {
		if out[i] != int64(i)*int64(i) {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], int64(i)*int64(i))
		}
	}
}

func TestGrowsWithGOMAXPROCS(t *testing.T) {
	// The pool starts lazily sized to GOMAXPROCS at first use but must pick
	// up later increases: submit re-checks the target on every loop.
	withProcs(t, 6)
	var sum atomic.Int64
	ForGrain(0, 100000, 16, func(i int) { sum.Add(int64(i)) })
	if want := int64(100000) * 99999 / 2; sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}
