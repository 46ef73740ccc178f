package hashtable

// BenchmarkHashtable measures the lock-free table, beside the sharded
// mutex map the tests use as their oracle, under the op mixes the
// consumers generate: bulk insert (grid build), read-mostly lookup
// (face-map activation), pure update (face attachment / cell push), and a
// mixed stream. Results are recorded in BENCH_hashtable.json; the CI bench
// job gates them against BENCH_baseline.txt.

import (
	"sync/atomic"
	"testing"

	"repro/internal/parallel"
)

const benchN = 1 << 16

func benchTables(capacity int) map[string]func() Table[uint64, int64] {
	hash := func(k uint64) uint64 { return Mix64(k) }
	return map[string]func() Table[uint64, int64]{
		"sharded": func() Table[uint64, int64] {
			return New[uint64, int64](4*parallel.MaxProcs(), capacity, hash)
		},
		"inline": func() Table[uint64, int64] {
			return NewLockFreeInline[uint64, int64](capacity, hash,
				func(v int64) (uint64, uint64) { return uint64(v), 0 },
				func(a, _ uint64) int64 { return int64(a) })
		},
	}
}

// BenchmarkHashtableInsert bulk-inserts distinct keys in parallel, presized
// (the grid-build pattern).
func BenchmarkHashtableInsert(b *testing.B) {
	for name, mk := range benchTables(benchN) {
		b.Run("impl="+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := mk()
				parallel.ForGrain(0, benchN, 256, func(k int) {
					m.Store(uint64(k), int64(k))
				})
			}
		})
	}
}

// BenchmarkHashtableLookup is a read-only parallel probe of a populated
// table (the face-map activation pattern): 90% hits, 10% misses.
func BenchmarkHashtableLookup(b *testing.B) {
	for name, mk := range benchTables(benchN) {
		b.Run("impl="+name, func(b *testing.B) {
			m := mk()
			for k := 0; k < benchN; k++ {
				m.Store(uint64(k), int64(k))
			}
			b.ResetTimer()
			var sink atomic.Int64
			for i := 0; i < b.N; i++ {
				var local atomic.Int64
				parallel.ForGrain(0, benchN, 256, func(k int) {
					probe := uint64(k)
					if k%10 == 9 {
						probe += benchN // miss
					}
					if v, ok := m.Load(probe); ok {
						local.Add(v)
					}
				})
				sink.Store(local.Load())
			}
		})
	}
}

// BenchmarkHashtableUpdate hammers read-modify-writes over a small hot key
// space (the face-attachment pattern: ~8 writers per key).
func BenchmarkHashtableUpdate(b *testing.B) {
	const keys = benchN / 8
	for name, mk := range benchTables(keys) {
		b.Run("impl="+name, func(b *testing.B) {
			m := mk()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				parallel.ForGrain(0, benchN, 256, func(k int) {
					m.Update(uint64(k%keys), func(old int64, ok bool) int64 { return old + 1 })
				})
			}
		})
	}
}

// BenchmarkHashtableMixed interleaves the three op kinds 2:1:1 over one
// table (steady-state incremental rounds).
func BenchmarkHashtableMixed(b *testing.B) {
	for name, mk := range benchTables(benchN) {
		b.Run("impl="+name, func(b *testing.B) {
			m := mk()
			for k := 0; k < benchN; k += 2 {
				m.Store(uint64(k), int64(k))
			}
			b.ResetTimer()
			var sink atomic.Int64
			for i := 0; i < b.N; i++ {
				var local atomic.Int64
				parallel.ForGrain(0, benchN, 256, func(k int) {
					switch k % 4 {
					case 0, 1:
						if v, ok := m.Load(uint64(k)); ok {
							local.Add(v)
						}
					case 2:
						m.Store(uint64(k), int64(k))
					case 3:
						m.Update(uint64(k), func(old int64, ok bool) int64 { return old + 1 })
					}
				})
				sink.Store(local.Load())
			}
		})
	}
}
