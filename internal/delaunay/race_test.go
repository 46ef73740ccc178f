//go:build race

package delaunay

// raceEnabled reports whether the race detector is on; it slows a
// 65536-point build about tenfold.
const raceEnabled = true
