package hashtable

// Tests for the epoch/snapshot layer (epoch.go): LockFreeInline snapshot
// semantics against the frozen mapSnap oracle, the regular-read guarantee,
// deferred reclamation of superseded slot arrays, the round-prefix
// completeness of boundary snapshots, the torn-read pins for the
// seqlock-validated Range/Len/snapshot paths, and the ridtdebug
// phase-violation detector. The storm tests are run under -race by the CI
// race job.

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

// TestSnapshotQuiesced: a snapshot taken at a quiesced epoch boundary
// holds exactly the committed contents — Load, Len, and Range all agree
// with the oracle, for the table and the Map oracle. The insert count is chosen
// to force several migrations first, so the pinned root is a flattened
// table that absorbed forwarding.
func TestSnapshotQuiesced(t *testing.T) {
	const n = 3000
	for name, mk := range snapImpls() {
		t.Run(name, func(t *testing.T) {
			h := mk()
			for i := 0; i < n; i++ {
				h.Store(i, i*3)
			}
			h.Delete(17)
			h.Delete(n - 1)
			if e := h.AdvanceEpoch(); e != 1 {
				t.Fatalf("AdvanceEpoch = %d, want 1", e)
			}
			s := h.Snapshot()
			defer s.Close()
			if s.Epoch() != 1 {
				t.Fatalf("snapshot epoch = %d, want 1", s.Epoch())
			}
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
			s.Close() // second Close below via defer: must be idempotent
		})
	}
}

// TestSnapshotRegularReads pins the write-visibility contract: after a
// snapshot, in-place overwrites MAY be visible through the lock-free
// snapshot (the snapshot pins the array, not the values) but MUST be
// one of the two committed values — while the Map snapshot, a frozen
// copy, never sees them. Keys inserted after the snapshot into a grown
// successor table are invisible to the pinned root.
func TestSnapshotRegularReads(t *testing.T) {
	for name, mk := range snapImpls() {
		t.Run(name, func(t *testing.T) {
			h := mk()
			const n = 100
			for i := 0; i < n; i++ {
				h.Store(i, 1)
			}
			h.AdvanceEpoch()
			s := h.Snapshot()
			defer s.Close()
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

// TestSnapshotTornReadStorm is the serve-side half of the satellite
// torn-read fix: snapshot Load/Range/Len on the inline table go through
// the validated seqlock read, so a reader storming alongside two-word
// writers never observes a half-written value — including reads through
// frozen (moved) slots while migrations run underneath. -race covered.
func TestSnapshotTornReadStorm(t *testing.T) {
	p := runtime.GOMAXPROCS(0)
	if p < 4 {
		p = 4
	}
	writes, growKeys := 20000, 4000
	if testing.Short() {
		writes, growKeys = 4000, 800
	}
	m := newInlinePair(2) // tiny: the run crosses several migrations
	const hotKeys = 16
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
		}(uint64(g)*77 + 1)
	}
	writers.Add(1)
	go func() { // migration pressure: fresh keys grow the table
		defer writers.Done()
		for i := 0; i < growKeys; i++ {
			m.Store(hotKeys+i, pairVal{uint64(i) | 1, (uint64(i) | 1) * pairMagic})
		}
	}()
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
				s.Close()
			}
		}(uint64(g)*991 + 5)
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("observed %d torn snapshot reads", n)
	}
}

// TestInlineRangeLenTornFree pins the satellite bugfix directly: the
// table-level Range and Len used to load the two value words raw; they
// now go through the validated seqlock read, so even when the phase
// contract is (incorrectly) violated by running them against a writer
// storm, every value they observe is a committed pair — the results are
// merely unordered, never torn. The test deliberately commits that
// violation, so it is skipped under the ridtdebug detector.
func TestInlineRangeLenTornFree(t *testing.T) {
	if debugPhase {
		t.Skip("deliberately violates the phase contract to pin torn-free reads; detector build would panic")
	}
	p := runtime.GOMAXPROCS(0)
	if p < 2 {
		p = 2
	}
	writes := 30000
	if testing.Short() {
		writes = 6000
	}
	const hotKeys = 16
	m := newInlinePair(64) // room for the hot set: no migration, pure in-place overwrites
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
				m.Range(func(_ int, v pairVal) bool {
					if v.b != v.a*pairMagic {
						torn.Add(1)
					}
					return true
				})
				if n := m.Len(); n < 0 || n > hotKeys {
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
// round number and calling AdvanceEpoch at each boundary, while readers
// snapshot concurrently and assert the prefix property — a snapshot at
// epoch e contains EVERY key of rounds <= e (boundary flatten makes the
// pinned root complete) with exactly its stamped value (insert-only, so
// in-place visibility cannot alter it), and any keys of rounds > e it
// happens to expose are ignored by stamp filtering.
func TestSnapshotRoundPrefix(t *testing.T) {
	rounds, perRound := 40, 100
	if testing.Short() {
		rounds, perRound = 15, 60
	}
	t.Run("inline", func(t *testing.T) {
		h := newInlineInt(4)
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
					s := h.Snapshot()
					e := s.Epoch()
					// Completeness + exactness over the committed prefix.
					for r := uint64(1); r <= e; r++ {
						base := (int(r) - 1) * perRound
						for i := 0; i < perRound; i += 7 {
							v, ok := s.Load(base + i)
							if !ok || uint64(v) != r {
								report("snapshot missed committed key")
								s.Close()
								return
							}
						}
					}
					n := 0
					s.Range(func(k, v int) bool {
						if uint64(v) <= e {
							n++
						}
						return true
					})
					if n != int(e)*perRound {
						report("prefix count mismatch in Range")
					}
					s.Close()
				}
			}()
		}
		for r := 1; r <= rounds; r++ {
			base := (r - 1) * perRound
			for i := 0; i < perRound; i++ {
				h.Store(base+i, r)
			}
			if got := h.AdvanceEpoch(); got != uint64(r) {
				t.Fatalf("AdvanceEpoch = %d, want %d", got, r)
			}
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

// TestDeferredReclamation observes the registry directly: a superseded
// root stays parked while a snapshot from its era is open, and is
// dropped once the snapshot closes and the epoch passes it.
func TestDeferredReclamation(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		h := newInlineInt(2)
		for i := 0; i < 16; i++ {
			h.Store(i, i)
		}
		h.AdvanceEpoch()
		s := h.Snapshot()
		for i := 16; i < 2000; i++ { // force growth past the pinned root
			h.Store(i, i)
		}
		h.Flatten()
		if h.retiredCount() == 0 {
			t.Fatal("growth under an open snapshot retired nothing")
		}
		// The pinned view still serves its era's keys.
		for i := 0; i < 16; i++ {
			if v, ok := s.Load(i); !ok || v != i {
				t.Fatalf("pinned snapshot lost key %d", i)
			}
		}
		h.AdvanceEpoch() // boundary passes the retire epoch; snapshot still pins
		if h.retiredCount() == 0 {
			t.Fatal("retired table reclaimed while its snapshot was open")
		}
		s.Close()
		h.AdvanceEpoch()
		if n := h.retiredCount(); n != 0 {
			t.Fatalf("retiredCount = %d after close+advance, want 0", n)
		}
		// Clear also retires, and reclaims on the next boundary.
		h.Clear()
		if h.retiredCount() == 0 {
			t.Fatal("Clear did not retire the old root")
		}
		h.AdvanceEpoch()
		if n := h.retiredCount(); n != 0 {
			t.Fatalf("retiredCount = %d after Clear+advance, want 0", n)
		}
	})
}

// TestSnapshotLoadAllocs pins the zero-alloc serve path: snapshot Load
// must not allocate, on the table or the oracle (ridtvet checks the same
// functions statically via //ridt:noalloc).
func TestSnapshotLoadAllocs(t *testing.T) {
	for name, mk := range snapImpls() {
		t.Run(name, func(t *testing.T) {
			h := mk()
			for i := 0; i < 500; i++ {
				h.Store(i, i)
			}
			h.AdvanceEpoch()
			s := h.Snapshot()
			defer s.Close()
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
// a mutator registered as in flight, any phase operation must panic. In
// default builds the detector is compiled out and the test skips.
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
				t.Error("Len with a mutator in flight did not panic")
			}
		}()
		h.Len()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AdvanceEpoch with a mutator in flight did not panic")
			}
		}()
		h.AdvanceEpoch()
	}()
	h.muts.Add(-1)
	if h.Len() != 1 { // quiesced again: phase ops run fine
		t.Error("Len wrong after quiesce")
	}
}
