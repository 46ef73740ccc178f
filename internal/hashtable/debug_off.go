//go:build !ridtdebug

package hashtable

// debugPhase gates the phase-violation detector (see phaseDebug in
// snap.go). In the default build it is the constant false: every
// `if debugPhase { ... }` hook is removed by the compiler, so the
// mutator hot paths are bit-for-bit the uninstrumented ones and the
// //ridt:noalloc pins keep their meaning — the same two-build story as
// internal/fault.
const debugPhase = false
