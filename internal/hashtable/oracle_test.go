package hashtable

// Oracle equivalence tests: randomized operation streams are replayed
// against a plain Go map (the oracle), the sharded Map, and LockFreeInline,
// asserting identical observable behavior op by op — the testing
// discipline of the RunType2Seq equivalence suite applied to the table.
// Table capacities are chosen tiny, and every op that may add keys is its
// own phase with a Reserve in front, so the lock-free replays cross
// several growths.

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// oracleOp codes for the replay streams (shared with the fuzz target).
const (
	opStore = iota
	opLoad
	opDelete
	opUpdate
	opGrowBurst // bulk insert to force a resize mid-stream
	numOps
)

// replayStep applies one op to a Table and to the map oracle and fails the
// test on any observable divergence.
func replayStep(t *testing.T, impl string, step int, tab Table[int, int], oracle map[int]int, op, key, val int) {
	t.Helper()
	switch op {
	case opStore:
		tab.Reserve(1)
		tab.Store(key, val)
		oracle[key] = val
	case opLoad:
		got, ok := tab.Load(key)
		want, wok := oracle[key]
		if ok != wok || (ok && got != want) {
			t.Fatalf("%s step %d: Load(%d) = (%d,%v), oracle (%d,%v)", impl, step, key, got, ok, want, wok)
		}
	case opDelete:
		tab.Delete(key)
		delete(oracle, key)
	case opUpdate:
		// Update semantics: absent -> val, present -> old+val.
		tab.Reserve(1)
		tab.Update(key, func(old int, ok bool) int {
			if !ok {
				return val
			}
			return old + val
		})
		if old, ok := oracle[key]; ok {
			oracle[key] = old + val
		} else {
			oracle[key] = val
		}
	case opGrowBurst:
		tab.Reserve(64)
		for i := 0; i < 64; i++ {
			k := key + i
			tab.Store(k, k^val)
			oracle[k] = k ^ val
		}
	}
}

// checkContents asserts a Table's full contents match the oracle, via a
// snapshot's Range and Len and per-key Loads.
func checkContents(t *testing.T, impl string, tab Table[int, int], oracle map[int]int) {
	t.Helper()
	s := tab.Snapshot()
	if got := s.Len(); got != len(oracle) {
		t.Fatalf("%s: Len=%d oracle=%d", impl, got, len(oracle))
	}
	seen := map[int]int{}
	s.Range(func(k, v int) bool {
		if prev, dup := seen[k]; dup {
			t.Fatalf("%s: Range yielded key %d twice (%d, %d)", impl, k, prev, v)
		}
		seen[k] = v
		return true
	})
	if len(seen) != len(oracle) {
		t.Fatalf("%s: Range yielded %d entries, oracle %d", impl, len(seen), len(oracle))
	}
	for k, want := range oracle {
		if got, ok := seen[k]; !ok || got != want {
			t.Fatalf("%s: Range[%d] = (%d,%v), oracle %d", impl, k, got, ok, want)
		}
		if got, ok := tab.Load(k); !ok || got != want {
			t.Fatalf("%s: Load(%d) = (%d,%v), oracle %d", impl, k, got, ok, want)
		}
	}
}

// TestOracleEquivalence replays randomized streams over several key-space
// widths and initial capacities. Small key spaces stress Update/Delete
// interleavings; wide ones with grow bursts stress Reserve's rehash.
func TestOracleEquivalence(t *testing.T) {
	impls := func() map[string]Table[int, int] {
		hash := func(k int) uint64 { return Mix64(uint64(k)) }
		return map[string]Table[int, int]{
			"sharded": New[int, int](8, 16, hash),
			"inline":  newInlineInt(2), // tiny: forces resizes
		}
	}
	for _, cfg := range []struct {
		keys, steps int
		seed        uint64
	}{
		{keys: 8, steps: 4000, seed: 1},
		{keys: 64, steps: 4000, seed: 2},
		{keys: 1024, steps: 8000, seed: 3},
		{keys: 1 << 16, steps: 8000, seed: 4}, // many grow bursts land
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("keys=%d/seed=%d", cfg.keys, cfg.seed), func(t *testing.T) {
			for impl, tab := range impls() {
				r := rng.New(cfg.seed) // same stream for every implementation
				oracle := map[int]int{}
				for step := 0; step < cfg.steps; step++ {
					op := int(r.Uint64() % numOps)
					key := int(r.Uint64() % uint64(cfg.keys))
					val := int(r.Uint64() % 1000)
					replayStep(t, impl, step, tab, oracle, op, key, val)
				}
				checkContents(t, impl, tab, oracle)
			}
		})
	}
}

// TestOracleImplsAgree replays one stream through the sharded map and
// LockFreeInline side by side and asserts they agree with each other (not
// just the oracle) on every returned value — the sharded map is the
// reference implementation for the lock-free table.
func TestOracleImplsAgree(t *testing.T) {
	a := New[int, int](4, 8, func(k int) uint64 { return Mix64(uint64(k)) })
	b := newInlineInt(2)
	r := rng.New(11)
	const keys, steps = 512, 20000
	for step := 0; step < steps; step++ {
		op := int(r.Uint64() % numOps)
		key := int(r.Uint64() % keys)
		val := int(r.Uint64() % 1000)
		switch op {
		case opStore:
			b.Reserve(1)
			a.Store(key, val)
			b.Store(key, val)
		case opLoad:
			av, aok := a.Load(key)
			if bv, bok := b.Load(key); av != bv || aok != bok {
				t.Fatalf("step %d: Load(%d) sharded (%d,%v) inline (%d,%v)", step, key, av, aok, bv, bok)
			}
		case opDelete:
			a.Delete(key)
			b.Delete(key)
		case opUpdate:
			f := func(old int, ok bool) int {
				if !ok {
					return val
				}
				return old*3 + val
			}
			b.Reserve(1)
			a.Update(key, f)
			b.Update(key, f)
			av, _ := a.Load(key)
			if bv, _ := b.Load(key); av != bv {
				t.Fatalf("step %d: Update(%d) sharded %d inline %d", step, key, av, bv)
			}
		case opGrowBurst:
			b.Reserve(64)
			for i := 0; i < 64; i++ {
				a.Store(key+i, i)
				b.Store(key+i, i)
			}
		}
	}
	if an, bn := a.Len(), b.Snapshot().Len(); an != bn {
		t.Fatalf("final Len: sharded %d inline %d", an, bn)
	}
	a.Range(func(k, v int) bool {
		if bv, ok := b.Load(k); !ok || bv != v {
			t.Fatalf("key %d: sharded %d, inline (%d,%v)", k, v, bv, ok)
		}
		return true
	})
}
