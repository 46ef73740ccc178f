package hashtable

import "sync/atomic"

// Snapshots (the serve-while-building read side).
//
// A Snap is a read-only handle over a table that stays valid while
// mutators keep running: the round engine batch-updates the table, and
// reader goroutines take snapshots at any time. A snapshot is O(1): it
// pins the current root table.
//
// What a snapshot guarantees, precisely:
//
//   - Every read is torn-free. Snap.Load/Range go through the validated
//     seqlock read (load meta, words, meta again), so a reader can never
//     observe half of a two-word write — even while writers storm the
//     same slots.
//   - Reads are *regular*: a Load returns the value of some committed
//     write no older than the snapshot point (never an older one, never a
//     torn one). Writes that land after the snapshot MAY be visible —
//     slots mutate in place, the snapshot pins the array, not the values.
//     Exact committed-round-prefix semantics are built one layer up, by
//     stamping values with the round that wrote them (the Delaunay face
//     map does exactly this) or by quiescing writers across a boundary.
//   - A Reserve that grows the table swaps the root: a snapshot opened
//     before it keeps reading the old table, which answers the
//     pre-growth state and receives no later write. The pinned pointer
//     keeps that table alive for as long as the snapshot is reachable.
type Snap[K comparable, V any] interface {
	// Load returns the value for k per the regular-read guarantee above.
	Load(k K) (V, bool)
	// Len counts the live entries visible to the snapshot.
	Len() int
	// Range calls f for every visible entry until f returns false.
	Range(f func(k K, v V) bool)
}

// phaseDebug is the ridtdebug-tag phase-violation detector. Reserve is a
// phase operation: running it concurrently with a mutator loses writes
// (a store landing in the old table after its slot was copied).
// Under `-tags ridtdebug` every mutator entry/exit maintains an atomic
// in-flight count and Reserve asserts it is zero; in the default build
// debugPhase is a false constant and the hooks compile away, exactly like
// internal/fault's sites.
type phaseDebug struct {
	muts atomic.Int64
}

// assertQuiesced panics if any mutator is in flight (ridtdebug builds
// only). Called on entry to every phase operation.
func (d *phaseDebug) assertQuiesced(op string) {
	if debugPhase && d.muts.Load() != 0 {
		panic("hashtable: phase operation " + op +
			" ran concurrently with a mutator (phase-concurrency violation)")
	}
}
