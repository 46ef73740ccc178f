package core

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestHn(t *testing.T) {
	if Hn(1) != 1 {
		t.Fatal("H_1 = 1")
	}
	if math.Abs(Hn(2)-1.5) > 1e-15 {
		t.Fatal("H_2 = 1.5")
	}
	// H_n ≈ ln n + γ.
	if got := Hn(100000); math.Abs(got-(math.Log(100000)+0.5772156649)) > 1e-4 {
		t.Fatalf("H_100000 = %v", got)
	}
}

// TestHnExpansionMatchesExactSum pins the asymptotic fast path to the
// direct sum across the cutoff: the two must agree to near machine
// precision, so no caller can observe which branch ran.
func TestHnExpansionMatchesExactSum(t *testing.T) {
	exact := func(n int) float64 {
		// Sum smallest-first for minimal rounding error.
		h := 0.0
		for i := n; i >= 1; i-- {
			h += 1 / float64(i)
		}
		return h
	}
	for _, n := range []int{hnExactCutoff - 1, hnExactCutoff, hnExactCutoff + 1, 1000, 4096, 100000} {
		got, want := Hn(n), exact(n)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("Hn(%d)=%.17g, exact sum %.17g (diff %g)", n, got, want, got-want)
		}
	}
	// Monotone across the cutoff.
	for n := hnExactCutoff - 2; n < hnExactCutoff+3; n++ {
		if Hn(n+1) <= Hn(n) {
			t.Fatalf("Hn not increasing at n=%d: %v then %v", n, Hn(n), Hn(n+1))
		}
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := Log2Ceil(n); got != want {
			t.Fatalf("Log2Ceil(%d)=%d want %d", n, got, want)
		}
	}
}

func TestType1DepthBound(t *testing.T) {
	// σ = k e² with k=2 for BST sort: the bound at n=1000 is ~ 2e² H_1000.
	got := Type1DepthBound(1000, 2)
	want := 2 * math.E * math.E * Hn(1000)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("bound=%v want %v", got, want)
	}
	if s := Type1Sigma(6); math.Abs(s-6*math.E*math.E) > 1e-12 {
		t.Fatalf("Type1Sigma(6)=%v", s)
	}
}

// type2Runners enumerates every schedule the trace tests must satisfy: the
// sequential reference and the batched runner (a scripted special-set is
// trivially verdict-stable, so it keeps the Type2Hooks contract).
var type2Runners = []struct {
	name string
	run  func(n int, h Type2Hooks) Type2Stats
}{
	{"seq", RunType2Seq},
	{"batched", RunType2},
}

// type2Trace runs a Type 2 schedule against a scripted special-set and
// records the execution order, verifying the scheduler's sequential
// semantics. IsSpecial runs concurrently on pool workers, so its
// violations are reported with Errorf (safe off the test goroutine) and
// never Fatalf.
func type2Trace(t *testing.T, n int, specialAt map[int]bool) {
	t.Helper()
	for _, runner := range type2Runners {
		executed := make([]bool, n)
		var order []int
		h := Type2Hooks{
			RunFirst: func() {
				executed[0] = true
				order = append(order, 0)
			},
			IsSpecial: func(k int) bool {
				if executed[k] {
					t.Errorf("%s: IsSpecial(%d) called after execution", runner.name, k)
				}
				return specialAt[k]
			},
			RunRegular: func(lo, hi int) {
				for k := lo; k < hi; k++ {
					if executed[k] {
						t.Fatalf("%s: iteration %d executed twice", runner.name, k)
					}
					if specialAt[k] {
						t.Fatalf("%s: special iteration %d run as regular", runner.name, k)
					}
					executed[k] = true
					//ridtvet:ignore parclosure trace recorder: both runners call RunRegular serially, once per sub-round
					order = append(order, k)
				}
			},
			RunSpecial: func(k int) {
				if !specialAt[k] {
					t.Fatalf("%s: regular iteration %d run as special", runner.name, k)
				}
				// All earlier iterations must be done.
				for j := 0; j < k; j++ {
					if !executed[j] {
						t.Fatalf("%s: special %d ran before iteration %d", runner.name, k, j)
					}
				}
				executed[k] = true
				order = append(order, k)
			},
		}
		st := runner.run(n, h)
		for k := 0; k < n; k++ {
			if !executed[k] {
				t.Fatalf("%s: iteration %d never executed", runner.name, k)
			}
		}
		wantSpecial := 1
		for k := range specialAt {
			if k != 0 && k < n && specialAt[k] {
				wantSpecial++
			}
		}
		if st.Special != wantSpecial {
			t.Fatalf("%s: special=%d want %d", runner.name, st.Special, wantSpecial)
		}
		if st.N != n {
			t.Fatalf("%s: N=%d", runner.name, st.N)
		}
		if st.RegularBatches > st.SubRounds {
			t.Fatalf("%s: %d regular batches exceed %d sub-rounds (not batched)",
				runner.name, st.RegularBatches, st.SubRounds)
		}
	}
}

func TestRunType2NoSpecials(t *testing.T) {
	type2Trace(t, 100, map[int]bool{})
}

func TestRunType2AllSpecials(t *testing.T) {
	all := map[int]bool{}
	for i := 1; i < 33; i++ {
		all[i] = true
	}
	type2Trace(t, 33, all)
}

func TestRunType2ScatteredSpecials(t *testing.T) {
	type2Trace(t, 257, map[int]bool{1: true, 2: true, 7: true, 64: true, 255: true, 256: true})
}

func TestRunType2RandomScripts(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(300)
		sp := map[int]bool{}
		for k := 1; k < n; k++ {
			if r.Intn(k+1) == 0 { // ~1/k probability, the Type 2 regime
				sp[k] = true
			}
		}
		type2Trace(t, n, sp)
	}
}

func TestRunType2Empty(t *testing.T) {
	for _, runner := range type2Runners {
		st := runner.run(0, Type2Hooks{
			RunFirst:  func() { t.Fatal("must not run") },
			IsSpecial: func(int) bool { return false },
		})
		if st.Special != 0 || st.Rounds != 0 {
			t.Fatalf("%s: empty run: %+v", runner.name, st)
		}
	}
}

func TestRunType2ChecksLinear(t *testing.T) {
	// With O(1) expected specials per prefix, total checks are O(n); under
	// the windowed schedule the bound holds worst-case and is never above
	// the sequential reference's charge.
	r := rng.New(2)
	n := 1 << 14
	sp := map[int]bool{}
	for k := 1; k < n; k++ {
		if r.Intn(k+1) == 0 {
			sp[k] = true
		}
	}
	var seqChecks int64
	for _, runner := range type2Runners {
		done := make([]bool, n)
		st := runner.run(n, Type2Hooks{
			RunFirst:   func() { done[0] = true },
			IsSpecial:  func(k int) bool { return sp[k] },
			RunRegular: func(lo, hi int) {},
			RunSpecial: func(k int) {},
		})
		if st.Checks > int64(12*n) {
			t.Fatalf("%s: checks=%d is superlinear for n=%d", runner.name, st.Checks, n)
		}
		if runner.name == "seq" {
			seqChecks = st.Checks
		} else if st.Checks > seqChecks {
			t.Fatalf("%s: checks=%d exceed the sequential reference's %d",
				runner.name, st.Checks, seqChecks)
		}
	}
}

func TestRunType3Schedule(t *testing.T) {
	n := 100
	var rounds [][2]int
	first := 0
	st := RunType3(n, Type3Hooks{
		RunFirst: func() { first++ },
		RunRound: func(lo, hi int) { rounds = append(rounds, [2]int{lo, hi}) },
		Combine: func(lo, hi int) {
			last := rounds[len(rounds)-1]
			if last != [2]int{lo, hi} {
				t.Fatal("combine range must match the round range")
			}
		},
	})
	if first != 1 {
		t.Fatal("RunFirst must run exactly once")
	}
	// Rounds must partition [1, n) in doubling blocks.
	expectLo := 1
	for _, r := range rounds {
		if r[0] != expectLo {
			t.Fatalf("round starts at %d, want %d", r[0], expectLo)
		}
		expectLo = r[1]
	}
	if expectLo != n {
		t.Fatalf("rounds end at %d, want %d", expectLo, n)
	}
	if st.Rounds != len(rounds) || st.Rounds != Log2Ceil(n) {
		t.Fatalf("rounds=%d want %d", st.Rounds, Log2Ceil(n))
	}
}

func TestRunType3SmallN(t *testing.T) {
	for n := 0; n <= 4; n++ {
		count := 0
		RunType3(n, Type3Hooks{
			RunFirst: func() { count++ },
			RunRound: func(lo, hi int) { count += hi - lo },
			Combine:  func(lo, hi int) {},
		})
		if count != n {
			t.Fatalf("n=%d: executed %d iterations", n, count)
		}
	}
}

// prefixHooks builds Type2Hooks over a scripted special-set that record
// which iterations executed.
func prefixHooks(n int, specialAt map[int]bool) (Type2Hooks, []bool) {
	executed := make([]bool, n)
	h := Type2Hooks{
		RunFirst:  func() { executed[0] = true },
		IsSpecial: func(k int) bool { return specialAt[k] },
		RunRegular: func(lo, hi int) {
			for k := lo; k < hi; k++ {
				executed[k] = true
			}
		},
		RunSpecial: func(k int) { executed[k] = true },
	}
	return h, executed
}

// TestRunType2HookPanicLeavesRunnerReusable is the Type 2 half of the
// panic-safety tests: a hook panic propagates with its value, and a
// fresh run on the same pool afterwards completes normally.
func TestRunType2HookPanicLeavesRunnerReusable(t *testing.T) {
	func() {
		defer func() {
			if r := recover(); r != "hook boom" {
				t.Fatalf("recovered %v, want the hook's panic value", r)
			}
		}()
		RunType2(100, Type2Hooks{
			RunFirst:  func() {},
			IsSpecial: func(k int) bool { return k == 10 },
			RunRegular: func(lo, hi int) {
				if lo <= 5 && 5 < hi {
					panic("hook boom")
				}
			},
			RunSpecial: func(int) {},
		})
		t.Fatal("runner returned past a panicking hook")
	}()
	h, executed := prefixHooks(200, map[int]bool{9: true})
	if st := RunType2(200, h); st.N != 200 || st.Special != 2 {
		t.Fatalf("post-panic run stats %+v, want N=200 with 2 specials", st)
	}
	for k, ok := range executed {
		if !ok {
			t.Fatalf("post-panic run skipped iteration %d", k)
		}
	}
}
