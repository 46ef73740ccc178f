//go:build !race

package delaunay

const raceEnabled = false
