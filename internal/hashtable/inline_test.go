package hashtable

// Tests of the table's seqlock slots and callback contract: torn-read
// stress (the seqlock's whole job is multi-word consistency), allocation
// pins for the write paths, growth with tombstones, and the exactly-once
// Update callback the closest-pair grids build their cell lists on. The
// phase stress (stress_test.go), the oracle and fuzz suites
// (oracle_test.go, fuzz_test.go) and the shared Table suite
// (lockfree_test.go) cover the rest.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/parallel"
)

// pairVal is a two-word POD whose halves must always be observed
// together: b is derived from a, so any torn read is detectable.
type pairVal struct {
	a, b uint64
}

const pairMagic = 0x9e3779b97f4a7c15

func encPair(v pairVal) (uint64, uint64) { return v.a, v.b }
func decPair(a, b uint64) pairVal        { return pairVal{a, b} }

// EncInt/DecInt are the int codec the suites build their tables with.
func EncInt(v int) (uint64, uint64) { return uint64(v), 0 }
func DecInt(a, _ uint64) int        { return int(a) }

func newInlinePair(capacity int) *LockFreeInline[int, pairVal] {
	return NewLockFreeInline[int, pairVal](capacity,
		func(k int) uint64 { return Mix64(uint64(k)) }, encPair, decPair)
}

func newInlineInt(capacity int) *LockFreeInline[int, int] {
	return NewLockFreeInline[int, int](capacity,
		func(k int) uint64 { return Mix64(uint64(k)) }, EncInt, DecInt)
}

// TestInlineTornReadStress hammers a small key space with two-word writes
// whose halves are linked (b = a*magic), while readers assert every
// snapshot is internally consistent. Concurrent inserts of fresh keys
// force cooperative migrations under the readers' feet, so frozen slots
// and installs are read through the same seqlock path. Run under -race by
// the CI race job.
func TestInlineTornReadStress(t *testing.T) {
	p := runtime.GOMAXPROCS(0)
	if p < 4 {
		p = 4
	}
	writes, growKeys := 20000, 4000
	if testing.Short() {
		writes, growKeys = 4000, 800
	}
	m := newInlinePair(2) // tiny: every run crosses several migrations
	const hotKeys = 16
	var stop atomic.Bool
	var torn atomic.Int64
	var writers, readers sync.WaitGroup

	// Writers: each write keeps the invariant b == a*pairMagic.
	for g := 0; g < p; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < writes; i++ {
				a := uint64(g)<<32 | uint64(i)
				m.Store(i%hotKeys, pairVal{a, a * pairMagic})
				m.Update((i+g)%hotKeys, func(old pairVal, ok bool) pairVal {
					if ok && old.b != old.a*pairMagic {
						torn.Add(1)
					}
					na := old.a + 1
					return pairVal{na, na * pairMagic}
				})
			}
		}(g)
	}
	// Growers: insert fresh keys so migrations run concurrently with the
	// hot-key traffic above.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < growKeys; i++ {
			a := uint64(1_000_000 + i)
			m.Store(1000+i, pairVal{a, a * pairMagic})
		}
	}()
	// Readers: every observed value must satisfy the invariant.
	for g := 0; g < p; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				for k := 0; k < hotKeys; k++ {
					if v, ok := m.Load(k); ok && v.b != v.a*pairMagic {
						torn.Add(1)
					}
				}
			}
		}()
	}

	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("observed %d torn reads", n)
	}
	// Post-quiescence: grown keys all present and consistent.
	for i := 0; i < growKeys; i++ {
		v, ok := m.Load(1000 + i)
		if !ok || v.b != v.a*pairMagic {
			t.Fatalf("grown key %d = (%+v,%v), want consistent pair", 1000+i, v, ok)
		}
	}
}

// TestInlineWriteNoAlloc pins the point of the inline table: Store,
// winning Update, Delete and Load allocate nothing once the table is at
// capacity.
func TestInlineWriteNoAlloc(t *testing.T) {
	m := newInlinePair(1024)
	for i := 0; i < 256; i++ {
		a := uint64(i)
		m.Store(i, pairVal{a, a * pairMagic})
	}
	checks := []struct {
		name string
		op   func()
	}{
		{"store", func() {
			a := uint64(42)
			m.Store(7, pairVal{a, a * pairMagic})
		}},
		{"update", func() {
			m.Update(9, func(old pairVal, ok bool) pairVal {
				na := old.a + 1
				return pairVal{na, na * pairMagic}
			})
		}},
		{"load", func() { m.Load(15) }},
		{"delete-absent", func() { m.Delete(1 << 20) }},
	}
	for _, c := range checks {
		if allocs := testing.AllocsPerRun(100, c.op); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, allocs)
		}
	}
}

// TestInlineGrowth fills a tiny table far past several growths and checks
// every key, including interleaved deletes (tombstones must not resurrect
// across migrations).
func TestInlineGrowth(t *testing.T) {
	m := newInlineInt(2)
	const n = 5000
	for i := 0; i < n; i++ {
		m.Store(i, i*3)
		if i%7 == 0 {
			m.Delete(i / 2)
		}
	}
	// A delete of k/2 at step i only sticks if k/2 was not re-stored later;
	// replay sequentially for the expected state.
	want := map[int]int{}
	for i := 0; i < n; i++ {
		want[i] = i * 3
		if i%7 == 0 {
			delete(want, i/2)
		}
	}
	if got := m.Len(); got != len(want) {
		t.Fatalf("Len=%d want %d", got, len(want))
	}
	for k, w := range want {
		if v, ok := m.Load(k); !ok || v != w {
			t.Fatalf("key %d = (%d,%v), want %d", k, v, ok, w)
		}
	}
}

// TestInlineUpdateExactlyOnce pins the callback contract the closest-pair
// grids build on: Update and UpdateAndGet run their callback exactly once
// per call, so a callback may push its op onto an intrusive per-key list
// (next[i] = displaced head). The table starts at capacity 1 and keys keep
// arriving throughout, so the pushes race several migrations; afterwards
// every callback ran once and each key's list holds exactly its ops.
func TestInlineUpdateExactlyOnce(t *testing.T) {
	const n, keys = 20000, 2048
	m := NewLockFreeInline[int, int32](1, func(k int) uint64 { return Mix64(uint64(k)) },
		EncInt32, DecInt32)
	keyOf := func(i int) int { return int(Mix64(uint64(i)) % keys) }
	calls := make([]atomic.Int32, n)
	next := make([]int32, n)
	push := func(i int32) func(int32, bool) int32 {
		return func(head int32, ok bool) int32 {
			calls[i].Add(1)
			if !ok {
				head = -1
			}
			next[i] = head
			return i
		}
	}
	parallel.For(0, n, func(i int) {
		if i%2 == 0 {
			m.Update(keyOf(i), push(int32(i)))
		} else if got := m.UpdateAndGet(keyOf(i), push(int32(i))); got != int32(i) {
			t.Errorf("UpdateAndGet for op %d returned %d", i, got)
		}
	})
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("op %d ran its callback %d times, want 1", i, c)
		}
	}
	want := make(map[int]int, keys)
	for i := 0; i < n; i++ {
		want[keyOf(i)]++
	}
	for k, cnt := range want {
		head, ok := m.Load(k)
		if !ok {
			t.Fatalf("key %d missing", k)
		}
		got := 0
		for j := head; j >= 0; j = next[j] {
			if keyOf(int(j)) != k || got > cnt {
				t.Fatalf("key %d: list reaches op %d (key %d) after %d of %d ops", k, j, keyOf(int(j)), got, cnt)
			}
			got++
		}
		if got != cnt {
			t.Fatalf("key %d: list holds %d ops, want %d", k, got, cnt)
		}
	}
}
