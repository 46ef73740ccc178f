// Package sortutil provides a parallel sort and a dense group-by built on
// the primitives in internal/parallel.
//
// The paper's combine steps (LE-lists, SCC, prefix-doubling BST insertion)
// call for a parallel semisort [41] to gather contributions per target.
// Every key they group by is a dense integer (a vertex id or a tree slot),
// so GroupDense does it with a stable counting sort, which also keeps each
// group in record order and makes a per-group sort unnecessary. Sort is a
// block merge sort with parallel block sorting and pairwise merging.
package sortutil

import (
	"sort"

	"repro/internal/parallel"
)

// Sort sorts xs in place using less, in parallel for large inputs.
// The sort is not stable.
func Sort[T any](xs []T, less func(a, b T) bool) {
	n := len(xs)
	const seqCutoff = 4096
	if n <= seqCutoff || parallel.MaxProcs() == 1 {
		sort.Slice(xs, func(i, j int) bool { return less(xs[i], xs[j]) })
		return
	}
	// Choose a power-of-two number of blocks ~4x procs; the pool's
	// dynamic chunk claiming assigns them to workers as they free up, so
	// uneven block sort times don't tail-stall the round.
	nb := 1
	for nb < 4*parallel.MaxProcs() {
		nb *= 2
	}
	for n/nb < seqCutoff/4 && nb > 1 {
		nb /= 2
	}
	bounds := make([]int, nb+1)
	for i := 0; i <= nb; i++ {
		bounds[i] = i * n / nb
	}
	parallel.ForGrain(0, nb, 1, func(b int) {
		blk := xs[bounds[b]:bounds[b+1]]
		sort.Slice(blk, func(i, j int) bool { return less(blk[i], blk[j]) })
	})
	// Pairwise merge rounds.
	buf := make([]T, n)
	src, dst := xs, buf
	for width := 1; width < nb; width *= 2 {
		pairs := make([][2]int, 0, nb/(2*width)+1)
		for lo := 0; lo < nb; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > nb {
				mid = nb
			}
			if hi > nb {
				hi = nb
			}
			pairs = append(pairs, [2]int{lo, hi})
			_ = mid
		}
		w := width
		parallel.ForGrain(0, len(pairs), 1, func(k int) {
			lo, hi := pairs[k][0], pairs[k][1]
			mid := lo + w
			if mid > hi {
				mid = hi
			}
			mergeInto(dst[bounds[lo]:bounds[hi]],
				src[bounds[lo]:bounds[mid]], src[bounds[mid]:bounds[hi]], less)
		})
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

func mergeInto[T any](out, a, b []T, less func(x, y T) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
}

// groupGrain is the fewest records a GroupDense block takes: below it a
// block's histogram pass costs more than running it on another worker
// saves.
const groupGrain = 4096

// GroupDense groups the records 0..n-1 by key(i), a dense key in
// [0, nkeys), with a stable counting sort: the records with key k are
// idx[off[k]:off[k+1]], in increasing index order. off has nkeys+1 entries
// and idx has n. Large inputs run in blocks: each block histograms its own
// records, one pass over the keys turns the histograms into the blocks'
// write positions, and each block scatters its records there. Blocks are
// at least nkeys records long, so their histograms cost no more than the
// records. The output does not depend on the block split. Work O(n +
// nkeys); this is the combine-step group-by of the Type 3 algorithms.
func GroupDense(n, nkeys int, key func(i int) int) (off, idx []int32) {
	off = make([]int32, nkeys+1)
	idx = make([]int32, n)
	nb := parallel.NumBlocks(n, max(groupGrain, nkeys))
	if nb <= 1 || parallel.MaxProcs() == 1 {
		// Count into off[k+1] and scan, so off[k] is k's start; scatter
		// with off[k] as k's cursor, which leaves it at k+1's start; then
		// shift the starts back into place.
		for i := 0; i < n; i++ {
			off[key(i)+1]++
		}
		for k := 1; k <= nkeys; k++ {
			off[k] += off[k-1]
		}
		for i := 0; i < n; i++ {
			k := key(i)
			idx[off[k]] = int32(i)
			off[k]++
		}
		copy(off[1:], off[:nkeys])
		off[0] = 0
		return off, idx
	}
	// hist[b*nkeys+k] counts block b's records with key k, then holds
	// where the next of them goes.
	hist := make([]int32, nb*nkeys)
	parallel.BlocksN(0, n, nb, func(b, lo, hi int) {
		h := hist[b*nkeys : (b+1)*nkeys]
		for i := lo; i < hi; i++ {
			h[key(i)]++
		}
	})
	parallel.Blocks(0, nkeys, 0, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			var c int32
			for b := 0; b < nb; b++ {
				c += hist[b*nkeys+k]
			}
			off[k] = c
		}
	})
	off[nkeys] = parallel.PrefixSums(off[:nkeys])
	parallel.Blocks(0, nkeys, 0, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			pos := off[k]
			for b := 0; b < nb; b++ {
				c := hist[b*nkeys+k]
				hist[b*nkeys+k] = pos
				pos += c
			}
		}
	})
	parallel.BlocksN(0, n, nb, func(b, lo, hi int) {
		h := hist[b*nkeys : (b+1)*nkeys]
		for i := lo; i < hi; i++ {
			k := key(i)
			idx[h[k]] = int32(i)
			h[k]++
		}
	})
	return off, idx
}
