// Package sortutil provides parallel sorting and semisorting (group-by)
// built on the primitives in internal/parallel.
//
// The paper's combine steps (LE-lists, SCC) call for a parallel semisort
// [41] to gather contributions per target vertex, followed by a small sort
// per group. Semisort here is a sharded group-by; Sort is a block
// merge sort with parallel block sorting and pairwise merging.
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

// SortInts sorts an int slice ascending in parallel.
func SortInts(xs []int) { Sort(xs, func(a, b int) bool { return a < b }) }

// IsSorted reports whether xs is non-decreasing under less.
func IsSorted[T any](xs []T, less func(a, b T) bool) bool {
	for i := 1; i < len(xs); i++ {
		if less(xs[i], xs[i-1]) {
			return false
		}
	}
	return true
}

// Group is one semisort bucket: all record indices sharing a key.
type Group struct {
	Key     uint64
	Indices []int
}

// Semisort groups the records 0..n-1 by key(i). Groups come back in
// arbitrary key order but each group's Indices preserve increasing index
// order. Work is O(n) expected; this is the combine-step primitive for the
// Type 3 algorithms.
func Semisort(n int, key func(i int) uint64) []Group {
	if n == 0 {
		return nil
	}
	nb := 1
	for nb < 2*parallel.MaxProcs() {
		nb *= 2
	}
	mask := uint64(nb - 1)
	// Phase 1: per-worker sharded accumulation.
	type kv struct {
		key uint64
		idx int
	}
	shards := make([][]kv, nb)
	var mu = make([]chSpin, nb)
	parallel.Blocks(0, n, 0, func(lo, hi int) {
		local := make([][]kv, nb)
		for i := lo; i < hi; i++ {
			k := key(i)
			s := mix(k) & mask
			local[s] = append(local[s], kv{k, i})
		}
		for s := range local {
			if len(local[s]) == 0 {
				continue
			}
			mu[s].lock()
			shards[s] = append(shards[s], local[s]...)
			mu[s].unlock()
		}
	})
	// Phase 2: per-shard grouping with a map; shards are independent.
	results := make([][]Group, nb)
	parallel.ForGrain(0, nb, 1, func(s int) {
		if len(shards[s]) == 0 {
			return
		}
		m := make(map[uint64][]int, len(shards[s])/2+1)
		for _, e := range shards[s] {
			m[e.key] = append(m[e.key], e.idx)
		}
		gs := make([]Group, 0, len(m))
		for k, idxs := range m {
			sort.Ints(idxs)
			gs = append(gs, Group{Key: k, Indices: idxs})
		}
		results[s] = gs
	})
	var out []Group
	for _, gs := range results {
		out = append(out, gs...)
	}
	return out
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chSpin is a tiny mutex used for shard appends (cheaper than sync.Mutex is
// not worth chasing here; it wraps one). Kept as a named type so the shard
// array pads nicely.
type chSpin struct {
	mu padMutex
}

func (c *chSpin) lock()   { c.mu.Lock() }
func (c *chSpin) unlock() { c.mu.Unlock() }
