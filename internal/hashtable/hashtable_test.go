package hashtable

import (
	"sync/atomic"
	"testing"

	"repro/internal/parallel"
)

func intMap(shards int) *Map[int, int] {
	return New[int, int](shards, 64, func(k int) uint64 { return Mix64(uint64(k)) })
}

func TestBasicOps(t *testing.T) {
	m := intMap(8)
	if _, ok := m.Load(1); ok {
		t.Fatal("empty map should miss")
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
	if m.Len() != 1 {
		t.Fatalf("len=%d after delete", m.Len())
	}
}

func TestShardRounding(t *testing.T) {
	// Shard counts round up to powers of two, minimum 1.
	for _, sc := range []int{0, 1, 3, 5, 16} {
		m := New[int, int](sc, 0, func(k int) uint64 { return uint64(k) })
		m.Store(7, 7)
		if v, ok := m.Load(7); !ok || v != 7 {
			t.Fatalf("shards=%d broken", sc)
		}
	}
}

func TestUpdate(t *testing.T) {
	m := intMap(4)
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
}

func TestRange(t *testing.T) {
	m := intMap(8)
	for i := 0; i < 100; i++ {
		m.Store(i, i*i)
	}
	seen := map[int]int{}
	m.Range(func(k, v int) bool {
		seen[k] = v
		return true
	})
	if len(seen) != 100 {
		t.Fatalf("range saw %d entries", len(seen))
	}
	for k, v := range seen {
		if v != k*k {
			t.Fatalf("entry %d=%d", k, v)
		}
	}
	// Early stop.
	count := 0
	m.Range(func(k, v int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop: %d", count)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	// Concurrent counter increments across a small key space must not lose
	// any updates.
	m := intMap(16)
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
}

func TestConcurrentAppendSlices(t *testing.T) {
	// The DT face-map pattern: concurrent appends to per-key slices.
	m := New[int, []int32](16, 64, func(k int) uint64 { return Mix64(uint64(k)) })
	const n = 50000
	parallel.For(0, n, func(i int) {
		m.Update(i%7, func(old []int32, _ bool) []int32 { return append(old, int32(i)) })
	})
	var total atomic.Int64
	m.Range(func(k int, v []int32) bool {
		total.Add(int64(len(v)))
		return true
	})
	if total.Load() != n {
		t.Fatalf("lost appends: %d want %d", total.Load(), n)
	}
}

func TestMix64Spreads(t *testing.T) {
	// Sequential keys must not collide in the low bits after mixing.
	const shards = 64
	var count [shards]int
	for i := 0; i < shards*100; i++ {
		count[Mix64(uint64(i))%shards]++
	}
	for s, c := range count {
		if c == 0 {
			t.Fatalf("shard %d never hit: weak mixing", s)
		}
	}
}
