package hashtable

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/parallel"
)

// Abandoned-loop stress for the growable table (and the Map oracle): a
// parallel insert loop is stopped partway — its bodies poll a stop flag
// raised after a quarter of the writes, the way a caller abandons work
// mid-loop — while cooperative migration is in flight. The abandoned
// table is flattened and its surviving contents are checked for exact
// equivalence against an oracle of the writes that actually executed:
// every write that ran is present with its final value, no write is
// duplicated, lost, or corrupted, and the table stays fully usable
// afterwards. The table never sees the flag; what it must survive is a
// growth whose mutators simply stop arriving.

func intHasher(k int) uint64 { return uint64(k) }

func runCancelGrowthStress(t *testing.T, mk func() Table[int, int]) {
	const (
		n       = 1 << 15
		seedCap = 16 // tiny start: inserts force repeated migrations
		trials  = 8
	)
	for trial := 0; trial < trials; trial++ {
		h := mk()
		var stop atomic.Bool
		var executed sync.Map // oracle: key -> value, recorded by the writes that ran
		var count atomic.Int64
		cutoff := int64(n / 4)

		parallel.ForGrain(0, n, 64, func(i int) {
			if stop.Load() {
				return
			}
			k := i
			v := i*3 + trial
			// Write the table first and record after: the oracle is then a
			// subset of the completed writes, and every oracle entry must
			// be in the table.
			h.Store(k, v)
			executed.Store(k, v)
			if count.Add(1) == cutoff {
				stop.Store(true)
			}
		})
		if count.Load() == n {
			t.Fatalf("trial %d: the stop flag never cut the loop short", trial)
		}

		// The loop has returned: no mutators remain. Flatten must complete
		// any abandoned migration and leave a plain table.
		h.Flatten()

		// Every write that provably completed is present with its value.
		missing := 0
		executed.Range(func(k, v any) bool {
			got, ok := h.Load(k.(int))
			if !ok {
				missing++
				return false
			}
			if got != v.(int) {
				t.Fatalf("trial %d: key %v = %v, oracle says %v", trial, k, got, v)
			}
			return true
		})
		if missing > 0 {
			t.Fatalf("trial %d: %d completed writes missing after stop+flatten", trial, missing)
		}
		// And nothing is present that was never written: every surviving
		// key decodes to the value this trial's writes would have given it.
		h.Range(func(k, v int) bool {
			if want := k*3 + trial; v != want {
				t.Fatalf("trial %d: stray entry %d=%d (want %d)", trial, k, v, want)
			}
			return true
		})

		// The table remains fully usable: finish the workload and verify.
		for i := 0; i < n; i++ {
			h.Store(i, i*3+trial)
		}
		if got := h.Len(); got != n {
			t.Fatalf("trial %d: post-stop refill Len = %d, want %d", trial, got, n)
		}
	}
}

func TestLockFreeInlineCancelDuringGrowth(t *testing.T) {
	runCancelGrowthStress(t, func() Table[int, int] {
		return NewLockFreeInline[int, int](16, intHasher, EncInt, DecInt)
	})
}

func TestMapCancelDuringGrowth(t *testing.T) {
	runCancelGrowthStress(t, func() Table[int, int] {
		return New[int, int](8, 16, intHasher)
	})
}
