package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/rng"
)

// mix64 is a splitmix64-style finalizer; good enough to act as the model
// algorithm's deterministic verdict oracle.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// modelType2 is a synthetic Type 2 algorithm for replaying one iteration
// stream through both runners. IsSpecial(k) is a deterministic function of
// k and the set of specials committed so far — exactly the information a
// Type 2 hook may consult — with Pr[special] ≈ c/k, the paper's regime.
// State (the signature of committed specials) changes only in RunFirst and
// RunSpecial, so the verdict-stability contract holds by construction. Regular
// iterations fold a per-index hash into an order-insensitive accumulator,
// so final states compare exactly without constraining commit granularity.
type modelType2 struct {
	salt     uint64
	c        uint64
	sig      atomic.Uint64 // read by concurrent probes, written at commits
	specials []int
	regSum   atomic.Uint64
}

func (m *modelType2) hooks() Type2Hooks {
	return Type2Hooks{
		RunFirst: func() {
			m.sig.Store(mix64(m.salt))
			m.specials = append(m.specials, 0)
		},
		IsSpecial: func(k int) bool {
			return mix64(m.sig.Load()^mix64(uint64(k)+1))%uint64(k+1) < m.c
		},
		RunRegular: func(lo, hi int) {
			var s uint64
			for k := lo; k < hi; k++ {
				s += mix64(uint64(k) * 0x9e3779b97f4a7c15)
			}
			m.regSum.Add(s)
		},
		RunSpecial: func(k int) {
			m.specials = append(m.specials, k)
			m.sig.Store(mix64(m.sig.Load() ^ mix64(uint64(k)+0xabcd)))
		},
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRunType2EquivalenceRandom replays the same iteration stream through
// the sequential reference and the batched runner and asserts identical
// committed special sequences, final state, schedule counters, and the
// O(n) check bound.
func TestRunType2EquivalenceRandom(t *testing.T) {
	r := rng.New(7)
	trials := 25
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		n := 1 + r.Intn(6000)
		salt := r.Uint64()
		c := uint64(1 + r.Intn(3))

		ref := &modelType2{salt: salt, c: c}
		refSt := RunType2Seq(n, ref.hooks())

		m := &modelType2{salt: salt, c: c}
		st := RunType2(n, m.hooks())

		if !equalInts(m.specials, ref.specials) {
			t.Fatalf("trial %d n=%d: special sequence diverged:\nbatched %v\nseq     %v",
				trial, n, m.specials, ref.specials)
		}
		if m.regSum.Load() != ref.regSum.Load() {
			t.Fatalf("trial %d n=%d: final regular state %x != %x",
				trial, n, m.regSum.Load(), ref.regSum.Load())
		}
		if st.Special != refSt.Special || st.Rounds != refSt.Rounds || st.SubRounds != refSt.SubRounds {
			t.Fatalf("trial %d: schedule counters diverged: %+v vs %+v", trial, st, refSt)
		}
		if st.Checks > refSt.Checks {
			t.Fatalf("trial %d: batched charged %d checks, reference %d", trial, st.Checks, refSt.Checks)
		}
		if st.Checks > int64(16*n) {
			t.Fatalf("trial %d: checks=%d superlinear for n=%d", trial, st.Checks, n)
		}
	}
}

// TestRunType2WindowedChecksWorstCase drives the pathological all-special
// stream: the windowed schedule must stay O(n) checks worst-case (every
// sub-round pays at most the first window), where the full-prefix probe
// would charge Θ(n²) on the same stream.
func TestRunType2WindowedChecksWorstCase(t *testing.T) {
	n := 1 << 12
	st := RunType2(n, Type2Hooks{
		RunFirst:   func() {},
		IsSpecial:  func(k int) bool { return true },
		RunRegular: func(lo, hi int) { t.Errorf("no regular block exists in [%d,%d)", lo, hi) },
		RunSpecial: func(k int) {},
	})
	if st.Special != n {
		t.Fatalf("special=%d want %d", st.Special, n)
	}
	if st.Checks > int64(probeWindow0*n) {
		t.Fatalf("checks=%d exceeds %d·n on the all-special stream", st.Checks, probeWindow0)
	}
}

// TestRunType2ParallelRace is the race-detector companion of the
// equivalence test: a large stream with concurrent probe fan-out, verdict
// state read from pool workers, and batched regular commits.
func TestRunType2ParallelRace(t *testing.T) {
	n := 1 << 15
	if testing.Short() {
		n = 1 << 13
	}
	ref := &modelType2{salt: 99, c: 2}
	RunType2Seq(n, ref.hooks())
	m := &modelType2{salt: 99, c: 2}
	st := RunType2(n, m.hooks())
	if !equalInts(m.specials, ref.specials) {
		t.Fatalf("special sequence diverged under the parallel schedule")
	}
	if m.regSum.Load() != ref.regSum.Load() {
		t.Fatalf("final state diverged under the parallel schedule")
	}
	if st.MaxRegular == 0 || st.RegularBatches == 0 {
		t.Fatalf("no batched regular commits recorded: %+v", st)
	}
	if st.MaxProbe == 0 {
		t.Fatalf("no probe width recorded: %+v", st)
	}
}
