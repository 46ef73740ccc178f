// Package parallel is a stand-in with the real loop-primitive signatures
// so the golden files typecheck without importing the module itself; the
// analyzers match it by package name.
package parallel

func For(lo, hi int, body func(i int)) {}

func ForGrain(lo, hi, grain int, body func(i int)) {}

func Blocks(lo, hi, grain int, body func(lo, hi int)) {}

func BlocksIndexed(lo, hi, grain int, body func(b, lo, hi int)) {}

func BlocksN(lo, hi, nb int, body func(b, lo, hi int)) {}

func PackInto[T any](dst []T, xs []T, keep func(i int) bool, counts []int) ([]T, []int) {
	return dst, counts
}
