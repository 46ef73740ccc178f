package parallel

// Number is the constraint for the arithmetic reductions in this package.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// reduceSums folds partial in index order with op, collapsing adjacent
// pairs level by level (combinePairs, in parallel) while the array is long
// and finishing sequentially. Only associativity is used — every combine
// is of in-order neighbours — so the result is bit-identical to a
// sequential left fold.
func reduceSums[T any](partial []T, identity T, op func(a, b T) T) T {
	for len(partial) > scanSeqThreshold {
		partial = combinePairs(partial, op)
	}
	acc := identity
	for _, p := range partial {
		acc = op(acc, p)
	}
	return acc
}

// Reduce combines f(i) for i in [lo, hi) with the associative operation op,
// starting from identity. op must be associative; commutativity is not
// required because blocks are combined in index order (tree-wise for large
// block counts). The per-block reductions run on the worker pool.
func Reduce[T any](lo, hi int, identity T, f func(i int) T, op func(a, b T) T) T {
	n := hi - lo
	if n <= 0 {
		return identity
	}
	nb := chunksFor(n, 0)
	if nb <= 1 || MaxProcs() == 1 {
		acc := identity
		for i := lo; i < hi; i++ {
			acc = op(acc, f(i))
		}
		return acc
	}
	partial := make([]T, nb)
	runLoop(nb, func(b int) {
		s, e := chunkBounds(lo, hi, b, nb)
		acc := identity
		for i := s; i < e; i++ {
			acc = op(acc, f(i))
		}
		partial[b] = acc
	})
	return reduceSums(partial, identity, op)
}

// SumFunc returns the sum of f(i) for i in [lo, hi).
func SumFunc[T Number](lo, hi int, f func(i int) T) T {
	var zero T
	return Reduce(lo, hi, zero, f, func(a, b T) T { return a + b })
}

// Sum returns the sum of the elements of xs.
func Sum[T Number](xs []T) T {
	return SumFunc(0, len(xs), func(i int) T { return xs[i] })
}

// MinIndexFunc returns the smallest index i in [lo, hi) for which
// keep(i) is true and key(i) is minimal, breaking ties toward the smaller
// index. ok is false when no index satisfies keep.
//
// This is the "find first special iteration" primitive of the paper's Type 2
// runner (Algorithm 1, line 7) and the min(E(t)) selection of Algorithm 5.
func MinIndexFunc[K Number](lo, hi int, keep func(i int) bool, key func(i int) K) (idx int, ok bool) {
	type cand struct {
		idx int
		ok  bool
	}
	res := Reduce(lo, hi, cand{-1, false},
		func(i int) cand { return cand{i, keep(i)} },
		func(a, b cand) cand {
			if !a.ok {
				return b
			}
			if !b.ok {
				return a
			}
			ka, kb := key(a.idx), key(b.idx)
			if ka < kb || (ka == kb && a.idx < b.idx) {
				return a
			}
			return b
		})
	return res.idx, res.ok
}

// Count returns the number of i in [lo, hi) with pred(i) true.
func Count(lo, hi int, pred func(i int) bool) int {
	return SumFunc(lo, hi, func(i int) int {
		if pred(i) {
			return 1
		}
		return 0
	})
}

// Any reports whether pred holds for any i in [lo, hi).
func Any(lo, hi int, pred func(i int) bool) bool {
	return Count(lo, hi, pred) > 0
}

// All reports whether pred holds for every i in [lo, hi).
func All(lo, hi int, pred func(i int) bool) bool {
	return Count(lo, hi, pred) == hi-lo
}
