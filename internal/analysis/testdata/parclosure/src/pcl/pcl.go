// Package pcl exercises parclosure on the loop primitives and the
// Type2Hooks contract.
package pcl

import (
	"core"
	"parallel"
)

func fill(dst []int64) {
	parallel.Blocks(0, len(dst), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = int64(i) // negative: index is range-derived
		}
	})
}

func total(xs []int64) int64 {
	var sum int64
	parallel.Blocks(0, len(xs), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += xs[i] // want `writes captured "sum" from concurrent blocks`
		}
	})
	return sum
}

func histo(counts map[int]int, xs []int) {
	parallel.For(0, len(xs), func(i int) {
		counts[xs[i]]++ // want `writes captured map "counts"`
	})
}

func broadcast(slot []int64) {
	parallel.ForGrain(0, 100, 16, func(i int) {
		slot[0] = int64(i) // want `index that does not depend on the block range`
	})
}

func pack(dst, xs []int64, counts []int) ([]int64, []int) {
	kept := 0
	out, cnt := parallel.PackInto(dst, xs, func(i int) bool {
		kept++ // want `writes captured "kept" from concurrent blocks`
		return xs[i] > 0
	}, counts)
	_ = kept
	return out, cnt
}

func blockTotals(totals []int64, xs []int64) int64 {
	var sum int64
	parallel.BlocksIndexed(0, len(xs), 64, func(b, lo, hi int) {
		for i := lo; i < hi; i++ {
			totals[b] += xs[i] // negative: block-derived index
			sum += xs[i]       // want `writes captured "sum" from concurrent blocks`
		}
	})
	return sum
}

func appendBlocks(nexts [][]int64) {
	parallel.BlocksN(0, 100, len(nexts), func(b, lo, hi int) {
		nexts[b] = append(nexts[b], int64(lo)) // negative: block-derived index
	})
}

func broadcastBlocks(slot []int64) {
	parallel.BlocksN(0, 100, 4, func(b, lo, hi int) {
		slot[0] = int64(lo) // want `index that does not depend on the block range`
	})
}

func hooks(executed []bool, specials []bool) core.Type2Hooks {
	seen := 0
	return core.Type2Hooks{
		IsSpecial: func(k int) bool {
			seen++ // want `IsSpecial is called concurrently and must not mutate shared state`
			return specials[k]
		},
		RunRegular: func(lo, hi int) {
			for k := lo; k < hi; k++ {
				executed[k] = true // negative: range-derived index
			}
		},
	}
}

func lateBind(h *core.Type2Hooks) {
	n := 0
	h.RunRegular = func(lo, hi int) {
		n += hi - lo // want `writes captured "n" from concurrent blocks`
	}
	_ = n
}
