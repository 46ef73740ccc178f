//go:build ridtfault

package parallel

import (
	"sync/atomic"
	"testing"

	"repro/internal/fault"
)

// Scheduler fault stress (ridtfault build): seeded delays and forced-steal
// diversions at the claim/steal sites must never change WHAT a loop
// executes — only the interleaving. Every index runs exactly once.

func TestSchedulerExactlyOnceUnderFaults(t *testing.T) {
	withProcs(t, 4)
	defer fault.Disable()
	const n = 1 << 16
	for _, seed := range []uint64{1, 42, 9001} {
		if err := fault.Enable(fault.Config{
			Seed:      seed,
			DelayRate: 0.2,
			SkipRate:  0.3,
			SiteMask:  fault.MaskOf(fault.SchedClaim, fault.SchedSteal),
		}); err != nil {
			t.Fatal(err)
		}
		counts := make([]atomic.Int32, n)
		ForGrain(0, n, 1, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("seed %d: index %d ran %d times", seed, i, got)
			}
		}
		if fault.Hits(fault.SchedClaim) == 0 {
			t.Fatalf("seed %d: claim site never reached — instrumentation is dead", seed)
		}
	}
}

// TestForcedStealsPreserveCombines runs the tree-combined reduction under
// heavy claim diversion: stolen ranges re-enter through install, and the
// combine tree must still see every element exactly once.
func TestForcedStealsPreserveCombines(t *testing.T) {
	withProcs(t, 4)
	defer fault.Disable()
	if err := fault.Enable(fault.Config{
		Seed:     7,
		SkipRate: 0.5,
		SiteMask: fault.MaskOf(fault.SchedClaim),
	}); err != nil {
		t.Fatal(err)
	}
	const n = 1 << 15
	xs := make([]int64, n)
	var want int64
	for i := range xs {
		xs[i] = int64(i%97) - 48
		want += xs[i]
	}
	for trial := 0; trial < 4; trial++ {
		if got := SumFunc(0, n, func(i int) int64 { return xs[i] }); got != want {
			t.Fatalf("trial %d: sum %d, want %d", trial, got, want)
		}
	}
}
