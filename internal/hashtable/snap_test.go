package hashtable

// Tests for the snapshot layer (snap.go): LockFreeInline snapshot
// semantics against the frozen mapSnap oracle, the regular-read guarantee,
// snapshots across a growing Reserve, the round-prefix completeness of
// boundary snapshots, the torn-read pins for the seqlock-validated
// snapshot sweeps, and the ridtdebug phase-violation detector. The storm
// tests are run under -race by the CI race job.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
)

// snapImpls builds the table and the Map oracle for the shared tests.
func snapImpls() map[string]func() Table[int, int] {
	hash := func(k int) uint64 { return Mix64(uint64(k)) }
	return map[string]func() Table[int, int]{
		"map":    func() Table[int, int] { return New[int, int](8, 64, hash) },
		"inline": func() Table[int, int] { return newInlineInt(4) },
	}
}

// TestSnapshotQuiesced: a snapshot taken at a quiesced boundary holds
// exactly the committed contents — Load, Len, and Range all agree with
// the oracle, for the table and the Map oracle. The inserts run in
// phases behind growing Reserves, so the pinned root is a rehashed table.
func TestSnapshotQuiesced(t *testing.T) {
	const n = 3000
	for name, mk := range snapImpls() {
		t.Run(name, func(t *testing.T) {
			h := mk()
			for lo := 0; lo < n; lo += n / 6 {
				h.Reserve(n / 6)
				for i := lo; i < lo+n/6; i++ {
					h.Store(i, i*3)
				}
			}
			h.Delete(17)
			h.Delete(n - 1)
			s := h.Snapshot()
			if got := s.Len(); got != n-2 {
				t.Fatalf("snapshot Len = %d, want %d", got, n-2)
			}
			seen := make(map[int]int, n)
			s.Range(func(k, v int) bool {
				if _, dup := seen[k]; dup {
					t.Fatalf("Range emitted key %d twice", k)
				}
				seen[k] = v
				return true
			})
			if len(seen) != n-2 {
				t.Fatalf("Range emitted %d keys, want %d", len(seen), n-2)
			}
			for i := 0; i < n; i++ {
				want := i != 17 && i != n-1
				v, ok := s.Load(i)
				if ok != want || (ok && v != i*3) {
					t.Fatalf("snapshot Load(%d) = (%d,%v), want present=%v val=%d", i, v, ok, want, i*3)
				}
				if rv, rok := seen[i], want; (rok && rv != i*3) || (rok != want) {
					t.Fatalf("Range disagrees at key %d", i)
				}
			}
			// Early-exit Range.
			calls := 0
			s.Range(func(k, v int) bool { calls++; return false })
			if calls != 1 {
				t.Fatalf("Range ignored early exit: %d calls", calls)
			}
		})
	}
}

// TestSnapshotRegularReads pins the write-visibility contract: after a
// snapshot, in-place overwrites MAY be visible through the lock-free
// snapshot (the snapshot pins the array, not the values) but MUST be
// one of the two committed values — while the Map snapshot, a frozen
// copy, never sees them.
func TestSnapshotRegularReads(t *testing.T) {
	for name, mk := range snapImpls() {
		t.Run(name, func(t *testing.T) {
			h := mk()
			const n = 100
			h.Reserve(n)
			for i := 0; i < n; i++ {
				h.Store(i, 1)
			}
			s := h.Snapshot()
			for i := 0; i < n; i++ {
				h.Store(i, 2)
			}
			frozen := name == "map"
			for i := 0; i < n; i++ {
				v, ok := s.Load(i)
				if !ok {
					t.Fatalf("Load(%d) lost a pre-snapshot key", i)
				}
				if frozen && v != 1 {
					t.Fatalf("frozen map snapshot saw post-snapshot write: Load(%d)=%d", i, v)
				}
				if v != 1 && v != 2 {
					t.Fatalf("Load(%d)=%d is neither committed value", i, v)
				}
			}
		})
	}
}

// TestSnapshotTornReadStorm: snapshot Load/Range/Len on the inline table
// go through the validated seqlock read, so a reader storming alongside
// two-word writers never observes a half-written value. The writes run in
// phases with a growing Reserve at every boundary, so readers also open
// snapshots on roots that a later Reserve retires. -race covered.
func TestSnapshotTornReadStorm(t *testing.T) {
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

	check := func(v pairVal) {
		if v.b != v.a*pairMagic {
			torn.Add(1)
		}
	}
	for g := 0; g < p; g++ {
		readers.Add(1)
		go func(seed uint64) {
			defer readers.Done()
			r := rng.New(seed)
			for !stop.Load() {
				s := m.Snapshot()
				for i := 0; i < 64; i++ {
					if v, ok := s.Load(int(r.Uint64() % hotKeys)); ok {
						check(v)
					}
				}
				s.Range(func(_ int, v pairVal) bool { check(v); return true })
				_ = s.Len()
			}
		}(uint64(g)*991 + 5)
	}
	for ph := 0; ph < phases; ph++ {
		lo, hi := ph*growKeys/phases, (ph+1)*growKeys/phases
		m.Reserve(hotKeys + hi - lo)
		var writers sync.WaitGroup
		for g := 0; g < p; g++ {
			writers.Add(1)
			go func(seed uint64) {
				defer writers.Done()
				r := rng.New(seed)
				for i := 0; i < writes/phases; i++ {
					a := r.Uint64() | 1
					m.Store(int(r.Uint64()%hotKeys), pairVal{a, a * pairMagic})
				}
			}(uint64(ph*p+g)*77 + 1)
		}
		writers.Add(1)
		go func() { // fresh keys fill the room the phase's Reserve made
			defer writers.Done()
			for i := lo; i < hi; i++ {
				m.Store(hotKeys+i, pairVal{uint64(i) | 1, (uint64(i) | 1) * pairMagic})
			}
		}()
		writers.Wait()
	}
	stop.Store(true)
	readers.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("observed %d torn snapshot reads", n)
	}
}

// TestInlineRangeLenTornFree pins the snapshot sweep, the table's only
// one, against pure in-place overwrites: writers storm a fixed hot set
// (no growth, so every write lands in the swept slots) while readers
// sweep fresh snapshots with Range and Len. Every value a sweep observes
// must be a committed pair, and Len can never leave the hot set's size.
func TestInlineRangeLenTornFree(t *testing.T) {
	p := runtime.GOMAXPROCS(0)
	if p < 2 {
		p = 2
	}
	writes := 30000
	if testing.Short() {
		writes = 6000
	}
	const hotKeys = 16
	m := newInlinePair(64) // room for the hot set: pure in-place overwrites
	for k := 0; k < hotKeys; k++ {
		m.Store(k, pairVal{1, pairMagic})
	}
	var stop atomic.Bool
	var torn atomic.Int64
	var writers, readers sync.WaitGroup
	for g := 0; g < p; g++ {
		writers.Add(1)
		go func(seed uint64) {
			defer writers.Done()
			r := rng.New(seed)
			for i := 0; i < writes; i++ {
				a := r.Uint64() | 1
				m.Store(int(r.Uint64()%hotKeys), pairVal{a, a * pairMagic})
			}
		}(uint64(g)*13 + 3)
	}
	for g := 0; g < p; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				s := m.Snapshot()
				s.Range(func(_ int, v pairVal) bool {
					if v.b != v.a*pairMagic {
						torn.Add(1)
					}
					return true
				})
				if n := s.Len(); n != hotKeys {
					torn.Add(1)
				}
			}
		}()
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("observed %d torn Range/Len reads", n)
	}
}

// TestSnapshotRoundPrefix is the table half of the linearizable-snapshot
// stress: a writer runs insert-only rounds, stamping each value with its
// round number, reserving room for the next round at each boundary and
// then publishing the committed round count, while readers read the count,
// open a snapshot and assert the prefix property — the snapshot contains
// EVERY key of rounds <= e (a Reserve between the rounds rehashes every
// committed key into the new root) with exactly its stamped value
// (insert-only, so in-place visibility cannot alter it); keys of rounds
// > e it happens to expose are ignored by stamp filtering.
func TestSnapshotRoundPrefix(t *testing.T) {
	rounds, perRound := 40, 100
	if testing.Short() {
		rounds, perRound = 15, 60
	}
	t.Run("inline", func(t *testing.T) {
		h := newInlineInt(4)
		var committed atomic.Int64
		var stop atomic.Bool
		var wg sync.WaitGroup
		fail := make(chan string, 1)
		report := func(msg string) {
			select {
			case fail <- msg:
			default:
			}
		}
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					e := int(committed.Load())
					s := h.Snapshot()
					// Completeness + exactness over the committed prefix.
					for r := 1; r <= e; r++ {
						base := (r - 1) * perRound
						for i := 0; i < perRound; i += 7 {
							v, ok := s.Load(base + i)
							if !ok || v != r {
								report("snapshot missed committed key")
								return
							}
						}
					}
					n := 0
					s.Range(func(k, v int) bool {
						if v <= e {
							n++
						}
						return true
					})
					if n != e*perRound {
						report("prefix count mismatch in Range")
					}
				}
			}()
		}
		for r := 1; r <= rounds; r++ {
			h.Reserve(perRound)
			base := (r - 1) * perRound
			for i := 0; i < perRound; i++ {
				h.Store(base+i, r)
			}
			committed.Store(int64(r))
		}
		stop.Store(true)
		wg.Wait()
		select {
		case msg := <-fail:
			t.Fatal(msg)
		default:
		}
	})
}

// TestSnapshotAcrossReserve: a growing Reserve swaps the root, so a
// snapshot opened before it keeps answering the pre-growth state — writes
// after the swap land in the new table only — while one opened after sees
// the same live contents as the table.
func TestSnapshotAcrossReserve(t *testing.T) {
	h := newInlineInt(64)
	for i := 0; i < 64; i++ {
		h.Store(i, i)
	}
	h.Delete(5)
	before := h.Snapshot()
	h.Reserve(1000)
	after := h.Snapshot()
	h.Store(0, -1)   // overwrite after the swap
	h.Store(500, 50) // new key after the swap
	h.Delete(6)      // delete after the swap

	if n := before.Len(); n != 63 {
		t.Fatalf("pre-growth snapshot Len = %d, want 63", n)
	}
	for i := 0; i < 64; i++ {
		v, ok := before.Load(i)
		if ok != (i != 5) || (ok && v != i) {
			t.Fatalf("pre-growth snapshot Load(%d) = (%d,%v)", i, v, ok)
		}
	}
	if _, ok := before.Load(500); ok {
		t.Fatal("pre-growth snapshot sees a key stored after the growth")
	}

	// The post-growth snapshot pins the live table: it agrees with the
	// table's own loads key by key, and counts what they find.
	want := 0
	for i := 0; i < 1000; i++ {
		v, ok := h.Load(i)
		sv, sok := after.Load(i)
		if ok != sok || v != sv {
			t.Fatalf("post-growth snapshot Load(%d) = (%d,%v), table (%d,%v)", i, sv, sok, v, ok)
		}
		if ok {
			want++
		}
	}
	if n := after.Len(); n != want || want != 63 {
		t.Fatalf("post-growth snapshot Len = %d, table holds %d (want 63)", n, want)
	}
}

// TestSnapshotLoadAllocs pins the zero-alloc serve path: snapshot Load
// must not allocate, on the table or the oracle (ridtvet checks the same
// functions statically via //ridt:noalloc).
func TestSnapshotLoadAllocs(t *testing.T) {
	for name, mk := range snapImpls() {
		t.Run(name, func(t *testing.T) {
			h := mk()
			h.Reserve(500)
			for i := 0; i < 500; i++ {
				h.Store(i, i)
			}
			s := h.Snapshot()
			k := 0
			if avg := testing.AllocsPerRun(200, func() {
				_, _ = s.Load(k)
				k = (k + 17) % 700 // mix of hits and misses
			}); avg != 0 {
				t.Fatalf("snapshot Load allocates %.1f per op, want 0", avg)
			}
		})
	}
}

// TestPhaseViolationDetector asserts the ridtdebug detector fires: with
// a mutator registered as in flight, Reserve must panic. In default
// builds the detector is compiled out and the test skips.
func TestPhaseViolationDetector(t *testing.T) {
	if !debugPhase {
		t.Skip("phase detector compiled out; run with -tags ridtdebug")
	}
	h := newInlineInt(4)
	h.Store(1, 1)
	h.muts.Add(1) // simulate a mutator parked mid-flight
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Reserve with a mutator in flight did not panic")
			}
		}()
		h.Reserve(100)
	}()
	h.muts.Add(-1)
	h.Reserve(100) // quiesced again: the phase operation runs fine
	if v, ok := h.Load(1); !ok || v != 1 {
		t.Errorf("Load(1) = (%d,%v) after Reserve", v, ok)
	}
}
