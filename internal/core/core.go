// Package core implements the paper's framework for parallelizing
// randomized incremental algorithms (Blelloch, Gu, Shun, Sun; SPAA 2016).
//
// The paper classifies randomized incremental algorithms by the structure
// of their iteration dependence graph:
//
//   - Type 1: k-bounded (possibly nested) dependences; the dependence DAG is
//     shallow whp (Theorem 2.1) and iterations run as soon as their
//     dependences resolve. Type 1 algorithms (BST sort, Delaunay) carry
//     their own round loops; this package supplies the bound predictions.
//   - Type 2: each iteration is "special" with probability ≤ c/j and depends
//     on everything earlier; regular iterations depend only on the closest
//     earlier special one. RunType2 implements the prefix-doubling schedule
//     of Algorithm 1 with O(n) work and O(d(n) log n) depth (Theorem 2.2).
//   - Type 3: separating dependences; iterations may run eagerly in doubled
//     rounds with a combine step fixing conflicts (Algorithm 2,
//     Theorem 2.6). RunType3 implements the round schedule.
//
// # The Type 2 reserve/commit schedule
//
// RunType2 executes each sub-round as a deterministic reserve/commit step
// in the style of GBBS deterministic reservations (Dhulipala, Blelloch,
// Shun; SPAA 2018). Reserve: every live iteration in the current prefix
// [j, hi) evaluates IsSpecial in parallel and the special ones race to
// reserve a shared priority-write cell, smallest index winning
// (parallel.ReduceMinIndex). Commit: the regular block [j, l) below the
// winning reservation l is committed in one batched RunRegular call —
// never one call per probe — then the special iteration l commits alone,
// and the next sub-round resumes at l+1. A sub-round with no reservation
// commits the whole prefix as regular and ends the round.
//
// Hooks change state only at special iterations (the Type2Hooks
// contract), so the live prefix is probed in doubling windows starting at
// probeWindow0 and verdicts from already-probed windows are carried
// forward within the sub-round: a sub-round's probe work is proportional
// to the distance to the next special rather than the prefix width, and
// the total number of checks is O(n) worst-case — each index is probed
// O(1) amortized times per committed special that lands near it — rather
// than O(n) only in expectation.
//
// Every runner records the counters the experiments report: rounds
// (dependence-depth proxy), sub-rounds, special-iteration count, charged
// check work, and the wall-parallelism shape of the schedule (widest
// parallel probe batch, batched regular-block sizes).
package core

import (
	"math"

	"repro/internal/fault"
	"repro/internal/parallel"
)

// hnExactCutoff is the largest n for which Hn sums the series directly.
// Above it the asymptotic expansion is used; at the cutoff the expansion's
// truncation error (≈ 1/(120 n⁴)) is below 1.2e-13, smaller than the
// rounding error of the direct sum.
const hnExactCutoff = 512

// eulerGamma is the Euler–Mascheroni constant γ.
const eulerGamma = 0.57721566490153286060651209

// Hn returns the n-th harmonic number, the scale of the dependence-depth
// bounds in Theorem 2.1. Small n are summed exactly; larger n use the
// asymptotic expansion ln n + γ + 1/(2n) − 1/(12n²), so the stats
// reporting that calls this once per run stays O(1) even for n in the
// millions.
func Hn(n int) float64 {
	if n <= hnExactCutoff {
		h := 0.0
		for i := 1; i <= n; i++ {
			h += 1 / float64(i)
		}
		return h
	}
	fn := float64(n)
	return math.Log(fn) + eulerGamma + 1/(2*fn) - 1/(12*fn*fn)
}

// Log2Ceil returns ceil(log2(n)) for n >= 1.
func Log2Ceil(n int) int {
	k, p := 0, 1
	for p < n {
		p *= 2
		k++
	}
	return k
}

// Type1Sigma returns the Theorem 2.1 threshold σ = k·e² for an algorithm
// with k-bounded dependences. It is the single source for the constant the
// experiment tables quote (2e² for BST sort, 6e² for 2D Delaunay).
func Type1Sigma(k int) float64 {
	return float64(k) * math.E * math.E
}

// Type1DepthBound returns the Theorem 2.1 high-probability bound σ·H_n on
// iteration dependence depth for an algorithm with k-bounded dependences,
// evaluated at the theorem's threshold σ = Type1Sigma(k).
func Type1DepthBound(n, k int) float64 {
	return Type1Sigma(k) * Hn(n)
}

// --- Type 2 -----------------------------------------------------------

// Type2Stats reports what the Algorithm 1 schedule did.
type Type2Stats struct {
	N         int
	Rounds    int   // outer prefix rounds (≈ log2 n)
	SubRounds int   // total sub-rounds across all rounds
	Special   int   // special iterations executed (incl. iteration 0)
	Checks    int64 // charged isSpecial evaluations (the O(n) work term)

	// Wall-parallelism shape of the schedule.
	MaxProbe       int // widest IsSpecial batch issued as one parallel reduction
	RegularBatches int // batched RunRegular commits (one per non-empty block)
	MaxRegular     int // largest regular block committed in a single call
}

// Type2Hooks supplies the algorithm-specific pieces of Algorithm 1.
//
// The runner preserves the sequential semantics: IsSpecial(k) is evaluated
// against the state after some prefix [0, j) of iterations has fully
// committed, with j <= k; only the smallest k reporting true is acted on
// (its verdict is the sequential one, since no earlier unfinished special
// iteration exists). When RunSpecial(k) is called, all iterations < k have
// committed and k is special; RunRegular(lo, hi) receives each sub-round's
// whole regular block in one call and may execute its iterations in any
// order or in parallel (none is special given the current state).
//
// RunType2 requires the verdict-stability contract: all state that
// IsSpecial observes is written only by RunFirst and RunSpecial —
// RunRegular commits are no-ops as far as IsSpecial can tell. A verdict
// rendered for iteration k therefore cannot change until the next special
// iteration commits, which is what lets the runner carry verdicts forward
// within a sub-round instead of re-evaluating them. RunType2Seq
// re-evaluates every verdict and needs no such contract.
type Type2Hooks struct {
	// RunFirst executes iteration 0 (always special: it initializes state).
	RunFirst func()
	// IsSpecial reports whether iteration k is special given current state.
	// Called concurrently from pool workers over a probe window, and skipped
	// for indices that cannot win the reservation; it must not mutate shared
	// state (counters must be atomic).
	IsSpecial func(k int) bool
	// RunRegular executes the regular iterations [lo, hi); may parallelize.
	// The runner batches: it is called at most once per sub-round, with the
	// full regular block below the committed special.
	RunRegular func(lo, hi int)
	// RunSpecial executes special iteration k; may touch all earlier state
	// and may parallelize internally (depth d(n) in the theorem).
	RunSpecial func(k int)
}

// probeWindow0 is the width of the first probe window of a sub-round;
// windows double from here, so the probe work of a sub-round is at most
// ~2× the distance to the committed special plus probeWindow0.
const probeWindow0 = 4

// RunType2 executes n iterations under the Algorithm 1 prefix-doubling
// schedule, with each sub-round run as a parallel reserve/commit batch
// (see the package comment), and returns its statistics. Iteration
// indices are 0-based; iteration 0 is the distinguished first (special)
// iteration. The committed special sequence, final state, and the
// Special/Rounds/SubRounds counters are identical to RunType2Seq's;
// Checks and MaxProbe are at most the reference's — smaller once a live
// prefix exceeds the first probe window.
func RunType2(n int, h Type2Hooks) Type2Stats {
	st := Type2Stats{N: n}
	if n == 0 {
		return st
	}
	h.RunFirst()
	st.Special++
	j := 1
	for hi := 2; j < n; hi *= 2 {
		if hi > n {
			hi = n
		}
		st.Rounds++
		for j < hi {
			// The fault site sits before any of the sub-round's effects: an
			// injected panic here leaves the hooks at a committed prefix.
			if fault.Enabled {
				fault.Inject(fault.Type2SubRound)
			}
			st.SubRounds++
			// Reserve: find the earliest special iteration in the live
			// prefix [j, hi) with a parallel priority-write reduction.
			l := probeWindowed(&h, j, hi, &st)
			// Commit: the whole regular block in one batched call, then
			// the winning special iteration alone.
			if l > j {
				h.RunRegular(j, l)
				st.RegularBatches++
				if l-j > st.MaxRegular {
					st.MaxRegular = l - j
				}
			}
			if l < hi {
				h.RunSpecial(l)
				st.Special++
				j = l + 1
			} else {
				j = hi
			}
		}
	}
	return st
}

// probeWindowed probes [j, hi) in doubling windows under the hooks'
// verdict-stability contract and returns the winning index, or hi if none:
// verdicts in an exhausted window are final for this sub-round (no special
// has committed since they were rendered), so the scan never revisits
// them. Charged checks per sub-round are at most
// min(hi-j, 2(l-j)+probeWindow0) for winning index l — never more than
// RunType2Seq charges — and O(n) worst-case over a whole run.
func probeWindowed(h *Type2Hooks, j, hi int, st *Type2Stats) int {
	idx, ok := parallel.ScanMinIndexWindows(j, hi, probeWindow0, func(width int) {
		st.Checks += int64(width)
		if width > st.MaxProbe {
			st.MaxProbe = width
		}
	}, h.IsSpecial)
	if !ok {
		return hi
	}
	return idx
}

// RunType2Seq is the sequential reference interpreter for the Algorithm 1
// schedule: the same prefix-doubling sub-round structure as RunType2, with
// the special-iteration search run as a serial scan on the calling
// goroutine. It is kept as the equivalence-test oracle (RunType2 must
// commit the identical special sequence and reach the identical final
// state) and as the baseline the BenchmarkType2 family measures the
// batched runner's speedup against. Checks charges the full live prefix
// per sub-round — the parallel work the PRAM schedule would issue — even
// though the scan early-exits, so Checks is an upper bound on RunType2's.
func RunType2Seq(n int, h Type2Hooks) Type2Stats {
	st := Type2Stats{N: n}
	if n == 0 {
		return st
	}
	h.RunFirst()
	st.Special++
	j := 1
	for hi := 2; j < n; hi *= 2 {
		if hi > n {
			hi = n
		}
		st.Rounds++
		for j < hi {
			st.SubRounds++
			l := hi
			for k := j; k < hi; k++ {
				if h.IsSpecial(k) {
					l = k
					break
				}
			}
			st.Checks += int64(hi - j)
			if hi-j > st.MaxProbe {
				st.MaxProbe = hi - j
			}
			if l > j {
				h.RunRegular(j, l)
				st.RegularBatches++
				if l-j > st.MaxRegular {
					st.MaxRegular = l - j
				}
			}
			if l < hi {
				h.RunSpecial(l)
				st.Special++
				j = l + 1
			} else {
				j = hi
			}
		}
	}
	return st
}

// --- Type 3 -----------------------------------------------------------

// Type3Stats reports what the Algorithm 2 schedule did.
type Type3Stats struct {
	N      int
	Rounds int // doubling rounds (= ceil(log2 n))
}

// Type3Hooks supplies the algorithm-specific pieces of Algorithm 2.
type Type3Hooks struct {
	// RunFirst executes iteration 0 alone.
	RunFirst func()
	// RunRound executes iterations [lo, hi) in parallel, each as if at
	// position lo, against the state frozen at the end of the previous
	// round.
	RunRound func(lo, hi int)
	// Combine merges the results of [lo, hi) so that earlier iterations
	// take priority; afterwards the state must equal the sequential state
	// after iteration hi-1 (or a refinement that the algorithm accepts).
	Combine func(lo, hi int)
}

// RunType3 executes n iterations under the Algorithm 2 doubling schedule.
func RunType3(n int, h Type3Hooks) Type3Stats {
	st := Type3Stats{N: n}
	if n == 0 {
		return st
	}
	h.RunFirst()
	for lo := 1; lo < n; lo *= 2 {
		// Pre-round fault site: a panic here leaves the state at the last
		// combined round's boundary.
		if fault.Enabled {
			fault.Inject(fault.Type3Round)
		}
		hi := lo * 2
		if hi > n {
			hi = n
		}
		st.Rounds++
		h.RunRound(lo, hi)
		h.Combine(lo, hi)
	}
	return st
}
