//go:build ridtfault

package core

import (
	"testing"

	"repro/internal/fault"
)

// Engine fault stress (ridtfault build): injected deaths at the sub-round
// and round boundaries must leave the hooks' state at an exact committed
// boundary — the engines promise prefix (Type 2) and round (Type 3)
// atomicity to panics.

// runToInjectedPanic runs f, reporting whether an injected panic escaped.
func runToInjectedPanic(t *testing.T, f func()) (died bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(fault.Injected); !ok {
				panic(r)
			}
			died = true
		}
	}()
	f()
	return false
}

// TestType2InjectedPanicIsPrefixAtomic: a death at a sub-round top leaves
// every earlier iteration executed and no later one started (the site
// fires before the sub-round's work begins), and a fresh run afterwards is
// equivalent to an uninjected one.
func TestType2InjectedPanicIsPrefixAtomic(t *testing.T) {
	defer fault.Disable()
	const n = 2000
	specials := map[int]bool{3: true, 70: true, 71: true, 800: true, 1500: true}
	for _, seed := range []uint64{1, 33, 501} {
		if err := fault.Enable(fault.Config{
			Seed:      seed,
			PanicRate: 0.4,
			MaxPanics: 1,
			SiteMask:  fault.MaskOf(fault.Type2SubRound),
		}); err != nil {
			t.Fatal(err)
		}
		h, executed := prefixHooks(n, specials)
		died := runToInjectedPanic(t, func() { RunType2(n, h) })
		if !died {
			t.Fatalf("seed %d: schedule never fired — raise the rate", seed)
		}
		// Prefix atomicity across the death: executed is gap-free.
		prefix := 0
		for prefix < n && executed[prefix] {
			prefix++
		}
		for k := prefix; k < n; k++ {
			if executed[k] {
				t.Fatalf("seed %d: iteration %d ran beyond the %d-prefix", seed, k, prefix)
			}
		}
		if prefix == n {
			t.Fatalf("seed %d: all iterations ran despite the death", seed)
		}
		// The runner (a shared pool client) stays fully usable.
		fault.Disable()
		h2, ex2 := prefixHooks(n, specials)
		RunType2(n, h2)
		for k, ok := range ex2 {
			if !ok {
				t.Fatalf("seed %d: post-death run skipped %d", seed, k)
			}
		}
	}
}

// TestType3InjectedPanicIsRoundAtomic: a death at a round top leaves every
// started round combined — the hooks' state sits at a combine boundary.
func TestType3InjectedPanicIsRoundAtomic(t *testing.T) {
	defer fault.Disable()
	const n = 1 << 12
	for _, seed := range []uint64{4, 29} {
		if err := fault.Enable(fault.Config{
			Seed:      seed,
			PanicRate: 0.3,
			MaxPanics: 1,
			SiteMask:  fault.MaskOf(fault.Type3Round),
		}); err != nil {
			t.Fatal(err)
		}
		ranTo, combinedTo := 0, 0
		h := Type3Hooks{
			RunFirst: func() { ranTo = 1 },
			RunRound: func(lo, hi int) { ranTo = hi },
			Combine:  func(lo, hi int) { combinedTo = hi },
		}
		died := runToInjectedPanic(t, func() { RunType3(n, h) })
		if !died {
			t.Fatalf("seed %d: schedule never fired — raise the rate", seed)
		}
		if ranTo > 1 && combinedTo != ranTo {
			t.Fatalf("seed %d: death left round [%d) run but combined only to %d",
				seed, ranTo, combinedTo)
		}
		if ranTo >= n {
			t.Fatalf("seed %d: all rounds ran despite the death", seed)
		}
	}
}
