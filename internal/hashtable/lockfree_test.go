package hashtable

import (
	"strings"
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
				if n := m.Snapshot().Len(); n != 2 {
					t.Fatalf("len=%d", n)
				}
				m.Delete(1)
				if _, ok := m.Load(1); ok {
					t.Fatal("delete failed")
				}
				m.Delete(99) // deleting an absent key is a no-op
				if n := m.Snapshot().Len(); n != 1 {
					t.Fatalf("len=%d after deletes", n)
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

			t.Run("range", func(t *testing.T) {
				m := mk()
				m.Reserve(300) // grows the cap-4 table before the inserts
				for i := 0; i < 300; i++ {
					m.Store(i, i*i)
				}
				seen := map[int]int{}
				s := m.Snapshot()
				s.Range(func(k, v int) bool {
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
				s.Range(func(k, v int) bool {
					count++
					return count < 5
				})
				if count != 5 {
					t.Fatalf("early stop: %d", count)
				}
			})

			t.Run("concurrent-updates", func(t *testing.T) {
				// Counter increments across a small key space must not lose
				// updates; the keys outnumber the initial capacity, so the
				// phase starts with a Reserve.
				m := mk()
				const n, keys = 100000, 13
				m.Reserve(keys)
				parallel.For(0, n, func(i int) {
					m.Update(i%keys, func(old int, ok bool) int { return old + 1 })
				})
				total := 0
				m.Snapshot().Range(func(k, v int) bool {
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

// TestLockFreeGrowth inserts far past the initial capacity from many
// goroutines, in phases of doubling size with a Reserve at each boundary;
// every key must survive the rehashes.
func TestLockFreeGrowth(t *testing.T) {
	m := newInlineInt(1)
	const n = 50000
	for lo, size := 0, 1; lo < n; lo, size = lo+size, 2*size {
		hi := min(lo+size, n)
		m.Reserve(hi - lo)
		parallel.For(lo, hi, func(i int) { m.Store(i, i+1) })
	}
	if got := m.Snapshot().Len(); got != n {
		t.Fatalf("len=%d want %d", got, n)
	}
	parallel.For(0, n, func(i int) {
		if v, ok := m.Load(i); !ok || v != i+1 {
			t.Errorf("key %d = (%d,%v)", i, v, ok)
		}
	})
}

// TestLockFreePriorityWrite: Update's exactly-once callback makes a
// priority write — the first callback to find the key absent wins, every
// later one keeps the winner, and every caller observes the winner.
func TestLockFreePriorityWrite(t *testing.T) {
	m := newInlineInt(64)
	const n, keys = 20000, 64
	won := make([]atomic.Int64, keys)
	observed := make([]int64, n)
	parallel.For(0, n, func(i int) {
		m.Update(i%keys, func(old int, ok bool) int {
			if ok {
				observed[i] = int64(old)
				return old
			}
			won[i%keys].Add(1)
			observed[i] = int64(i)
			return i
		})
	})
	for k := range won {
		if w := won[k].Load(); w != 1 {
			t.Fatalf("key %d won %d times", k, w)
		}
	}
	for i := 0; i < n; i++ {
		v, _ := m.Load(i % keys)
		if observed[i] != int64(v) {
			t.Fatalf("op %d observed %d, final %d", i, observed[i], v)
		}
	}
}

// TestLockFreeReserve: Reserve(more) makes room for more new keys on top
// of the ones already claimed, so a phase of that many inserts runs
// without a claim past the limit.
func TestLockFreeReserve(t *testing.T) {
	m := newInlineInt(1)
	for i := 0; i < 5; i++ {
		m.Store(i, i)
	}
	m.Reserve(10000)
	if lim := m.cur.Load().limit; lim < 5+10000 {
		t.Fatalf("limit %d after Reserve(10000) over 5 claims", lim)
	}
	parallel.For(5, 10005, func(i int) { m.Store(i, i) })
	if n := m.Snapshot().Len(); n != 10005 {
		t.Fatalf("len=%d", n)
	}
	for i := 0; i < 10005; i += 997 {
		if v, ok := m.Load(i); !ok || v != i {
			t.Fatalf("key %d = (%d,%v)", i, v, ok)
		}
	}
}

// TestReserveNoOpWithRoom: a Reserve that fits under the load limit keeps
// the table as it is.
func TestReserveNoOpWithRoom(t *testing.T) {
	m := newInlineInt(100)
	for i := 0; i < 40; i++ {
		m.Store(i, i)
	}
	root := m.cur.Load()
	m.Reserve(int(root.limit) - 40)
	m.Reserve(0)
	if m.cur.Load() != root {
		t.Fatal("Reserve with room left replaced the table")
	}
	m.Reserve(int(root.limit) - 40 + 1)
	if m.cur.Load() == root {
		t.Fatal("Reserve past the limit kept the table")
	}
}

// TestReserveKeepsLiveEntries: a growing Reserve keeps every live key
// with its value, drops deleted keys, and leaves a table whose claims are
// exactly the live keys (tombstones do not survive the rehash).
func TestReserveKeepsLiveEntries(t *testing.T) {
	m := newInlineInt(1000)
	want := map[int]int{}
	for i := 0; i < 1000; i++ {
		m.Store(i, 7*i)
		want[i] = 7 * i
	}
	for i := 0; i < 1000; i += 3 {
		m.Delete(i)
		delete(want, i)
	}
	old := m.cur.Load()
	m.Reserve(int(old.limit)) // past the limit: must grow
	nt := m.cur.Load()
	if nt == old || len(nt.slots) < 2*len(old.slots) {
		t.Fatalf("Reserve grew %d slots to %d, want at least double", len(old.slots), len(nt.slots))
	}
	if c := nt.claims.Load(); c != int64(len(want)) {
		t.Fatalf("claims after rehash = %d, want the %d live keys", c, len(want))
	}
	for i := 0; i < 1000; i++ {
		v, ok := m.Load(i)
		w, wok := want[i]
		if ok != wok || v != w {
			t.Fatalf("key %d = (%d,%v), want (%d,%v)", i, v, ok, w, wok)
		}
	}
	if n := m.Snapshot().Len(); n != len(want) {
		t.Fatalf("len=%d want %d", n, len(want))
	}
}

// claimPanic runs f and returns the message of the panic it raised ("" if
// none).
func claimPanic(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
			if msg == "" {
				msg = "non-string panic"
			}
		}
	}()
	f()
	return ""
}

// TestClaimPastLimitPanics: mutators never grow the table. A claim past
// the load limit panics with a message naming Reserve, both sequentially
// and from a parallel loop body, whose panic the pool re-raises on the
// caller; updates of keys already present still succeed.
func TestClaimPastLimitPanics(t *testing.T) {
	m := newInlineInt(16)
	lim := int(m.cur.Load().limit)
	for i := 0; i < lim; i++ {
		m.Store(i, i)
	}
	msg := claimPanic(func() { m.Store(lim, lim) })
	if !strings.Contains(msg, "Reserve") {
		t.Fatalf("claim past the limit: panic %q, want one naming Reserve", msg)
	}
	if msg := claimPanic(func() { m.Store(0, 42) }); msg != "" {
		t.Fatalf("overwrite of a present key panicked: %q", msg)
	}
	if v, _ := m.Load(0); v != 42 {
		t.Fatalf("overwrite lost: %d", v)
	}

	p := newInlineInt(64)
	msg = claimPanic(func() {
		parallel.For(0, 4096, func(i int) { p.Store(i, i) })
	})
	if !strings.Contains(msg, "Reserve") {
		t.Fatalf("parallel claims past the limit: panic %q, want one naming Reserve", msg)
	}
	// The table stays usable: a Reserve makes room and the phase reruns.
	p.Reserve(4096)
	parallel.For(0, 4096, func(i int) { p.Store(i, i) })
	if n := p.Snapshot().Len(); n != 4096 {
		t.Fatalf("len after Reserve and rerun = %d", n)
	}
}
