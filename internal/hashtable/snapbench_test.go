package hashtable

// BenchmarkSnapshotRead* measures the serve-while-building read side:
// snapshot probes and sweeps against a populated table, with and without
// a concurrent writer storming it (the ridtd steady state). Results are
// recorded in BENCH_serve.json and gated by the CI bench job like the
// other families. Run with -benchmem: the snapshot read path is a gated
// zero-allocation property, not just a number.

import (
	"sync/atomic"
	"testing"

	"repro/internal/parallel"
)

// BenchmarkSnapshotReadLoad probes a snapshot of a populated table
// (90% hits / 10% misses), quiesced: pure read-path cost.
func BenchmarkSnapshotReadLoad(b *testing.B) {
	for name, mk := range benchTables(benchN) {
		b.Run("impl="+name, func(b *testing.B) {
			m := mk()
			for k := 0; k < benchN; k++ {
				m.Store(uint64(k), int64(k))
			}
			s := m.Snapshot()
			b.ResetTimer()
			var sink atomic.Int64
			for i := 0; i < b.N; i++ {
				var local atomic.Int64
				parallel.ForGrain(0, benchN, 256, func(k int) {
					probe := uint64(k)
					if k%10 == 9 {
						probe += benchN // miss
					}
					if v, ok := s.Load(probe); ok {
						local.Add(v)
					}
				})
				sink.Store(local.Load())
			}
		})
	}
}

// BenchmarkSnapshotReadUnderWrites is the same probe with a writer
// goroutine overwriting the hot keys throughout: what a ridtd reader
// pays while the builder commits a round into the same slots. Sharded is
// excluded — its snapshot is a frozen copy, so writers cost it nothing
// by construction (and the copy itself is priced by SnapshotOpen below).
func BenchmarkSnapshotReadUnderWrites(b *testing.B) {
	b.Run("impl=inline", func(b *testing.B) {
		m := benchTables(benchN)["inline"]()
		for k := 0; k < benchN; k++ {
			m.Store(uint64(k), int64(k))
		}
		s := m.Snapshot()
		var stop atomic.Bool
		done := make(chan struct{})
		go func() {
			defer close(done)
			for k := uint64(0); !stop.Load(); k++ {
				m.Store(k%benchN, int64(k))
			}
		}()
		b.ResetTimer()
		var sink atomic.Int64
		for i := 0; i < b.N; i++ {
			var local atomic.Int64
			parallel.ForGrain(0, benchN, 256, func(k int) {
				if v, ok := s.Load(uint64(k)); ok {
					local.Add(v)
				}
			})
			sink.Store(local.Load())
		}
		b.StopTimer()
		stop.Store(true)
		<-done
	})
}

// BenchmarkSnapshotReadRange sweeps every entry visible to a snapshot:
// the bulk-export path (and the validated visit loop's cost).
func BenchmarkSnapshotReadRange(b *testing.B) {
	for name, mk := range benchTables(benchN) {
		b.Run("impl="+name, func(b *testing.B) {
			m := mk()
			for k := 0; k < benchN; k++ {
				m.Store(uint64(k), int64(k))
			}
			s := m.Snapshot()
			b.ResetTimer()
			var sink int64
			for i := 0; i < b.N; i++ {
				var sum int64
				s.Range(func(_ uint64, v int64) bool { sum += v; return true })
				sink = sum
			}
			_ = sink
		})
	}
}

// snapSink keeps BenchmarkSnapshotOpen's snapshots observable.
var snapSink Snap[uint64, int64]

// BenchmarkSnapshotOpen prices Snapshot itself: an O(1) pin on the
// lock-free table, an O(n) frozen copy on the sharded map (the honest cost
// of its oracle-grade semantics).
func BenchmarkSnapshotOpen(b *testing.B) {
	for name, mk := range benchTables(benchN) {
		b.Run("impl="+name, func(b *testing.B) {
			m := mk()
			for k := 0; k < benchN; k++ {
				m.Store(uint64(k), int64(k))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snapSink = m.Snapshot()
			}
		})
	}
}
