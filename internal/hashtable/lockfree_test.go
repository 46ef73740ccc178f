package hashtable

import (
	"sync/atomic"
	"testing"

	"repro/internal/parallel"
)

// implementations returns the production table and the sharded oracle over
// int keys/values, constructed small so the lock-free table must grow under
// the tests.
func implementations() map[string]func() Table[int, int] {
	hash := func(k int) uint64 { return Mix64(uint64(k)) }
	return map[string]func() Table[int, int]{
		"sharded": func() Table[int, int] { return New[int, int](8, 64, hash) },
		"inline":  func() Table[int, int] { return newInlineInt(4) },
	}
}

// TestTableSuite runs the semantics shared by the table and the oracle.
func TestTableSuite(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			t.Run("basic", func(t *testing.T) {
				m := mk()
				if _, ok := m.Load(1); ok {
					t.Fatal("empty table should miss")
				}
				m.Store(1, 10)
				m.Store(2, 20)
				if v, ok := m.Load(1); !ok || v != 10 {
					t.Fatalf("load 1 = (%d,%v)", v, ok)
				}
				m.Store(1, 11)
				if v, _ := m.Load(1); v != 11 {
					t.Fatal("store should overwrite")
				}
				if m.Len() != 2 {
					t.Fatalf("len=%d", m.Len())
				}
				m.Delete(1)
				if _, ok := m.Load(1); ok {
					t.Fatal("delete failed")
				}
				m.Delete(99) // deleting an absent key is a no-op
				if m.Len() != 1 {
					t.Fatalf("len=%d after deletes", m.Len())
				}
				m.Clear()
				if m.Len() != 0 {
					t.Fatal("clear failed")
				}
				m.Store(3, 30) // usable after Clear
				if v, _ := m.Load(3); v != 30 {
					t.Fatal("store after clear")
				}
			})

			t.Run("update", func(t *testing.T) {
				m := mk()
				m.Update(5, func(old int, ok bool) int {
					if ok {
						t.Fatal("should be absent")
					}
					return 1
				})
				m.Update(5, func(old int, ok bool) int {
					if !ok || old != 1 {
						t.Fatal("should see previous value")
					}
					return old + 1
				})
				if v, _ := m.Load(5); v != 2 {
					t.Fatalf("v=%d", v)
				}
				if got := m.UpdateAndGet(5, func(old int, ok bool) int { return old * 10 }); got != 20 {
					t.Fatalf("UpdateAndGet=%d", got)
				}
				// Update after delete sees absent.
				m.Delete(5)
				m.Update(5, func(old int, ok bool) int {
					if ok {
						t.Fatal("deleted key should be absent in Update")
					}
					return 7
				})
				if v, _ := m.Load(5); v != 7 {
					t.Fatalf("v=%d", v)
				}
			})

			t.Run("loadorstore", func(t *testing.T) {
				m := mk()
				if v, loaded := m.LoadOrStore(1, 100); loaded || v != 100 {
					t.Fatalf("(%d,%v)", v, loaded)
				}
				if v, loaded := m.LoadOrStore(1, 200); !loaded || v != 100 {
					t.Fatalf("(%d,%v)", v, loaded)
				}
				m.Delete(1)
				if v, loaded := m.LoadOrStore(1, 300); loaded || v != 300 {
					t.Fatalf("after delete: (%d,%v)", v, loaded)
				}
			})

			t.Run("range", func(t *testing.T) {
				m := mk()
				for i := 0; i < 300; i++ { // forces several growths at cap 4
					m.Store(i, i*i)
				}
				seen := map[int]int{}
				m.Range(func(k, v int) bool {
					seen[k] = v
					return true
				})
				if len(seen) != 300 {
					t.Fatalf("range saw %d entries", len(seen))
				}
				for k, v := range seen {
					if v != k*k {
						t.Fatalf("entry %d=%d", k, v)
					}
				}
				count := 0
				m.Range(func(k, v int) bool {
					count++
					return count < 5
				})
				if count != 5 {
					t.Fatalf("early stop: %d", count)
				}
			})

			t.Run("concurrent-updates", func(t *testing.T) {
				// Counter increments across a small key space must not lose
				// updates, including across growth (keys > initial capacity).
				m := mk()
				const n, keys = 100000, 13
				parallel.For(0, n, func(i int) {
					m.Update(i%keys, func(old int, ok bool) int { return old + 1 })
				})
				total := 0
				m.Range(func(k, v int) bool {
					total += v
					return true
				})
				if total != n {
					t.Fatalf("lost updates: total=%d want %d", total, n)
				}
			})
		})
	}
}

func TestLockFreeGrowth(t *testing.T) {
	// Insert far past the initial capacity from many goroutines; every key
	// must survive the migrations.
	m := newInlineInt(1)
	const n = 50000
	parallel.For(0, n, func(i int) { m.Store(i, i+1) })
	if m.Len() != n {
		t.Fatalf("len=%d want %d", m.Len(), n)
	}
	parallel.For(0, n, func(i int) {
		if v, ok := m.Load(i); !ok || v != i+1 {
			t.Errorf("key %d = (%d,%v)", i, v, ok)
		}
	})
}

func TestLockFreePriorityWrite(t *testing.T) {
	// LoadOrStore is a priority write: exactly one writer per key wins and
	// everyone observes the winner.
	m := newInlineInt(8)
	const n, keys = 20000, 64
	won := make([]atomic.Int64, keys)
	observed := make([]int64, n)
	parallel.For(0, n, func(i int) {
		k := i % keys
		v, loaded := m.LoadOrStore(k, i)
		if !loaded {
			won[k].Add(1)
		}
		observed[i] = int64(v)
	})
	for k := range won {
		if w := won[k].Load(); w != 1 {
			t.Fatalf("key %d won %d times", k, w)
		}
	}
	for i := 0; i < n; i++ {
		k := i % keys
		v, _ := m.Load(k)
		if observed[i] != int64(v) {
			t.Fatalf("op %d observed %d, final %d", i, observed[i], v)
		}
	}
}

func TestLockFreeReserve(t *testing.T) {
	m := newInlineInt(1)
	for i := 0; i < 10; i++ {
		m.Store(i, i)
	}
	m.Reserve(10000)
	for i := 10; i < 10000; i++ {
		m.Store(i, i)
	}
	if m.Len() != 10000 {
		t.Fatalf("len=%d", m.Len())
	}
	for i := 0; i < 10000; i += 997 {
		if v, ok := m.Load(i); !ok || v != i {
			t.Fatalf("key %d = (%d,%v)", i, v, ok)
		}
	}
}
