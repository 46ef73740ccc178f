package hashtable

// Tests of the table's slot cells and callback contract: torn-read
// stress (every value a reader observes must be one a writer wrote
// whole), allocation pins for the write paths, growth with tombstones,
// and the exactly-once Update callback the closest-pair grids build their
// cell lists on. The phase stress (stress_test.go), the oracle and fuzz
// suites (oracle_test.go, fuzz_test.go) and the shared Table suite
// (lockfree_test.go) cover the rest.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/parallel"
)

// pairVal is a one-word POD of two 32-bit halves that must always be
// observed together: b is derived from a, so a read of a value no writer
// wrote whole is detectable.
type pairVal struct {
	a, b uint32
}

const pairMagic = 0x9e3779b9

func encPair(v pairVal) uint64 { return uint64(v.a)<<32 | uint64(v.b) }
func decPair(w uint64) pairVal { return pairVal{uint32(w >> 32), uint32(w)} }

// EncInt/DecInt are the int codec the suites build their tables with.
func EncInt(v int) uint64 { return uint64(v) }
func DecInt(w uint64) int { return int(w) }

func newInlinePair(capacity int) *LockFreeInline[int, pairVal] {
	return NewLockFreeInline[int, pairVal](capacity,
		func(k int) uint64 { return Mix64(uint64(k)) }, encPair, decPair)
}

func newInlineInt(capacity int) *LockFreeInline[int, int] {
	return NewLockFreeInline[int, int](capacity,
		func(k int) uint64 { return Mix64(uint64(k)) }, EncInt, DecInt)
}

// TestInlineTornReadStress hammers a small key space with writes whose
// halves are linked (b = a*magic), while readers assert every value they
// load is internally consistent. The writes run in phases, each
// inserting fresh keys beside the hot-key traffic, with a growing Reserve
// at every boundary, so the readers' loads straddle the root swaps. Run
// under -race by the CI race job.
func TestInlineTornReadStress(t *testing.T) {
	p := runtime.GOMAXPROCS(0)
	if p < 4 {
		p = 4
	}
	writes, growKeys := 20000, 4000
	if testing.Short() {
		writes, growKeys = 4000, 800
	}
	const phases, hotKeys = 8, 16
	m := newInlinePair(2) // tiny: the phases' Reserves grow it several times
	var stop atomic.Bool
	var torn atomic.Int64
	var readers sync.WaitGroup

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
	for ph := 0; ph < phases; ph++ {
		lo, hi := ph*growKeys/phases, (ph+1)*growKeys/phases
		m.Reserve(hotKeys + hi - lo)
		var writers sync.WaitGroup
		// Writers: each write keeps the invariant b == a*pairMagic.
		for g := 0; g < p; g++ {
			writers.Add(1)
			go func(g int) {
				defer writers.Done()
				for i := ph * writes / phases; i < (ph+1)*writes/phases; i++ {
					a := uint32(g)<<24 | uint32(i)
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
		// Grower: fresh keys fill the room the phase's Reserve made.
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := lo; i < hi; i++ {
				a := uint32(1_000_000 + i)
				m.Store(1000+i, pairVal{a, a * pairMagic})
			}
		}()
		writers.Wait()
	}
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
		a := uint32(i)
		m.Store(i, pairVal{a, a * pairMagic})
	}
	checks := []struct {
		name string
		op   func()
	}{
		{"store", func() {
			a := uint32(42)
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

// TestInlineGrowth fills a tiny table far past several growths, one
// Reserve per insert, and checks every key, including interleaved deletes:
// tombstones must not resurrect, and a rehash drops them, so the grown
// table claims only the live keys; before it, Claimed bounds Len.
func TestInlineGrowth(t *testing.T) {
	m := newInlineInt(2)
	const n = 5000
	for i := 0; i < n; i++ {
		m.Reserve(1)
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
	if got := m.Snapshot().Len(); got != len(want) {
		t.Fatalf("Len=%d want %d", got, len(want))
	}
	if c := m.Claimed(); c < len(want) {
		t.Fatalf("Claimed=%d below the %d live keys", c, len(want))
	}
	for k, w := range want {
		if v, ok := m.Load(k); !ok || v != w {
			t.Fatalf("key %d = (%d,%v), want %d", k, v, ok, w)
		}
	}
	// Force one more rehash: only the live keys are claimed after it.
	m.Reserve(int(m.cur.Load().limit))
	if c := m.Claimed(); c != len(want) {
		t.Fatalf("claims after rehash = %d, want %d live keys", c, len(want))
	}
	for k, w := range want {
		if v, ok := m.Load(k); !ok || v != w {
			t.Fatalf("after rehash key %d = (%d,%v), want %d", k, v, ok, w)
		}
	}
}

// TestInlineUpdateExactlyOnce pins the callback contract the closest-pair
// grids build on: Update runs its callback exactly once per call, so a
// callback may push its op onto an intrusive per-key list (next[i] =
// displaced head). Every worker pushes onto the same few hot cells, so the
// pushes contend on the slot locks; afterwards every callback ran once and
// each key's list holds exactly its ops.
func TestInlineUpdateExactlyOnce(t *testing.T) {
	const n, keys = 20000, 4
	m := NewLockFreeInline[int, int32](keys, func(k int) uint64 { return Mix64(uint64(k)) },
		EncInt32, DecInt32)
	keyOf := func(i int) int { return int(Mix64(uint64(i)) % keys) }
	calls := make([]atomic.Int32, n)
	next := make([]int32, n)
	parallel.For(0, n, func(i int) {
		m.Update(keyOf(i), func(head int32, ok bool) int32 {
			calls[i].Add(1)
			if !ok {
				head = -1
			}
			next[i] = head
			return int32(i)
		})
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
