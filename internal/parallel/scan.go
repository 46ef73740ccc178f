package parallel

// scanSeqThreshold is the length at or below which the block-sum combine
// runs sequentially. Above it the combine recurses (pairwise tree), which
// matters now that chunksPerWorker·P block counts can reach the hundreds.
const scanSeqThreshold = 32

// combinePairs reduces adjacent pairs of src into a fresh ceil(len/2)
// array (an odd last element is carried through). It is the shared upsweep
// level of the tree combines in scanSums and reduceSums: combining only
// in-order neighbours is what lets both promise bit-identical results to a
// sequential left fold with nothing but associativity.
func combinePairs[T any](src []T, op func(a, b T) T) []T {
	half := len(src) / 2
	pair := make([]T, (len(src)+1)/2)
	ForGrain(0, half, scanSeqThreshold/2, func(i int) {
		pair[i] = op(src[2*i], src[2*i+1])
	})
	if len(src)%2 == 1 {
		pair[half] = src[len(src)-1]
	}
	return pair
}

// scanSums replaces sums with its exclusive prefix sums under op and
// returns the total, recursing with a pairwise upsweep/downsweep when the
// array is long: adjacent pairs are combined into a half-length array, that
// array is scanned recursively, and the pair prefixes are expanded back.
// Only associativity is used — elements are always combined with their
// in-order neighbours — so the result is bit-identical to the sequential
// scan for any op. Work O(len), depth O(log² len).
func scanSums[T any](sums []T, identity T, op func(a, b T) T) T {
	n := len(sums)
	if n <= scanSeqThreshold {
		acc := identity
		for i := 0; i < n; i++ {
			s := sums[i]
			sums[i] = acc
			acc = op(acc, s)
		}
		return acc
	}
	half := n / 2
	pair := combinePairs(sums, op)
	total := scanSums(pair, identity, op)
	// pair[i] now holds the sum of all elements before pair i, i.e. before
	// sums[2i]: seed each pair's in-place exclusive scan with it.
	ForGrain(0, half, scanSeqThreshold/2, func(i int) {
		lo := pair[i]
		first := sums[2*i]
		sums[2*i] = lo
		sums[2*i+1] = op(lo, first)
	})
	if n%2 == 1 {
		sums[n-1] = pair[half]
	}
	return total
}

// ScanExclusive replaces xs with its exclusive prefix sums under op and
// returns the grand total: out[i] = identity ⊕ xs[0] ⊕ ... ⊕ xs[i-1].
// op must be associative. The scan is the classic two-pass block algorithm:
// per-block sums, a tree-combined scan over the block sums, then per-block
// local scans. Both block passes run on the worker pool with identical
// block boundaries, so the result is deterministic on the stealing
// scheduler: block b always covers the same indices and always receives
// the same in-order prefix, whichever lane runs it. Work O(n), depth
// O(n/P + log² #blocks).
func ScanExclusive[T any](xs []T, identity T, op func(a, b T) T) T {
	n := len(xs)
	if n == 0 {
		return identity
	}
	nb := chunksFor(n, 0)
	if nb <= 1 || MaxProcs() == 1 {
		acc := identity
		for i := 0; i < n; i++ {
			x := xs[i]
			xs[i] = acc
			acc = op(acc, x)
		}
		return acc
	}
	sums := make([]T, nb)
	// Pass 1: block sums.
	runLoop(nb, func(b int) {
		s, e := chunkBounds(0, n, b, nb)
		acc := identity
		for i := s; i < e; i++ {
			acc = op(acc, xs[i])
		}
		sums[b] = acc
	})
	total := scanSums(sums, identity, op)
	// Pass 2: local scans seeded with the block offset.
	runLoop(nb, func(b int) {
		s, e := chunkBounds(0, n, b, nb)
		acc := sums[b]
		for i := s; i < e; i++ {
			x := xs[i]
			xs[i] = acc
			acc = op(acc, x)
		}
	})
	return total
}

// PrefixSums computes the exclusive prefix sums of counts in place and
// returns the total. It is ScanExclusive specialized to addition.
func PrefixSums[T Number](counts []T) T {
	var zero T
	return ScanExclusive(counts, zero, func(a, b T) T { return a + b })
}

// Pack copies the elements of xs whose flag is true into a fresh slice,
// preserving order. It implements the PRAM compaction step used throughout
// the paper's parallel algorithms (processor allocation and compaction).
func Pack[T any](xs []T, flag func(i int) bool) []T {
	n := len(xs)
	if n == 0 {
		return nil
	}
	nb := NumBlocks(n, 0)
	counts := make([]int, nb)
	BlocksN(0, n, nb, func(b, lo, hi int) {
		c := 0
		for i := lo; i < hi; i++ {
			if flag(i) {
				c++
			}
		}
		counts[b] = c
	})
	total := PrefixSums(counts)
	out := make([]T, total)
	BlocksN(0, n, nb, func(b, lo, hi int) {
		pos := counts[b]
		for i := lo; i < hi; i++ {
			if flag(i) {
				out[pos] = xs[i]
				pos++
			}
		}
	})
	return out
}

// PackInto is Pack for steady-state callers: it compacts the elements of
// xs for which keep(i) reports true into dst, reusing dst's capacity, and
// uses counts as the per-block scratch (grown only when too small). It
// returns the packed slice and the scratch so the caller can thread both
// through repeated rounds; once capacities have plateaued, a call
// allocates nothing beyond the scheduler's own O(1) per-loop state. keep
// is evaluated twice per index (count pass, then write pass), so it must
// be cheap and deterministic — precompute a flag array for expensive
// predicates. Output order is the input order regardless of how blocks
// are scheduled.
func PackInto[T any](dst []T, xs []T, keep func(i int) bool, counts []int) ([]T, []int) {
	n := len(xs)
	if n == 0 {
		return dst[:0], counts
	}
	nb := NumBlocks(n, 0)
	if cap(counts) < nb {
		counts = make([]int, nb)
	}
	counts = counts[:nb]
	BlocksN(0, n, nb, func(b, lo, hi int) {
		c := 0
		for i := lo; i < hi; i++ {
			if keep(i) {
				c++
			}
		}
		counts[b] = c
	})
	// The block-count scan is tiny (at most chunksPerWorker·P entries);
	// a sequential fold avoids the parallel scan's setup and allocations.
	total := 0
	for b := range counts {
		c := counts[b]
		counts[b] = total
		total += c
	}
	if cap(dst) < total {
		dst = make([]T, total)
	}
	dst = dst[:total]
	BlocksN(0, n, nb, func(b, lo, hi int) {
		pos := counts[b]
		for i := lo; i < hi; i++ {
			if keep(i) {
				dst[pos] = xs[i]
				pos++
			}
		}
	})
	return dst, counts
}

// Map applies f to each element index of a fresh slice of length n.
func Map[T any](n int, f func(i int) T) []T {
	out := make([]T, n)
	For(0, n, func(i int) { out[i] = f(i) })
	return out
}
