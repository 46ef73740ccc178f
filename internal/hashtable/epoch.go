package hashtable

import (
	"sync"
	"sync/atomic"
)

// Epoch-published snapshots (the serve-while-building read side).
//
// A Snap is a read-only handle over a table that stays valid while
// mutators keep running: the round engine batch-updates the table, and at
// each committed round boundary calls AdvanceEpoch — a phase operation
// that drives any in-flight migration to completion (so the root is a
// flat array) and bumps the table's epoch counter. Reader goroutines take
// snapshots at any time; a snapshot is O(1) — it pins the current root
// table and registers its epoch with the table's reclamation registry.
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
//     map does exactly this) or by quiescing writers across the epoch
//     boundary, and are what the linearizable-snapshot stress asserts.
//   - The pinned slot array is never reclaimed while the snapshot is
//     open. Superseded root tables are retired to the registry instead of
//     being dropped when the root pointer advances past them; retired
//     tables are reclaimed only once every snapshot registered at or
//     before the retire epoch has been closed. Go's GC would keep the
//     array reachable through the pinned pointer anyway — the registry
//     makes the lifetime argument explicit, testable (reclamation is
//     observable), and portable to arena- or mmap-backed slot storage
//     (the out-of-core ROADMAP item), where a freed array really is gone.
//
// Close a snapshot when done with it; a leaked snapshot pins every table
// retired since it was taken, for the life of the table.
type Snap[K comparable, V any] interface {
	// Epoch is the table epoch the snapshot was taken at.
	Epoch() uint64
	// Load returns the value for k per the regular-read guarantee above.
	Load(k K) (V, bool)
	// Len counts the live entries visible to the snapshot.
	Len() int
	// Range calls f for every visible entry until f returns false.
	Range(f func(k K, v V) bool)
	// Close releases the snapshot's pin on retired tables. Idempotent.
	Close()
}

// epochCore is the per-table epoch counter plus the deferred-reclamation
// registry for superseded slot arrays. LockFreeInline embeds it (so does
// the tests' Map oracle); the zero value is ready to use.
type epochCore struct {
	epoch atomic.Uint64

	mu      sync.Mutex
	live    map[uint64]int // open snapshots per epoch
	retired []retiredTable
}

// retiredTable is a superseded root table held until no snapshot taken at
// or before its retire epoch remains open.
type retiredTable struct {
	epoch uint64
	tab   any
}

// Epoch returns the table's current epoch. Epochs start at 0 and advance
// only via AdvanceEpoch, so the value identifies the round boundary the
// table last published.
func (ec *epochCore) Epoch() uint64 { return ec.epoch.Load() }

// advance bumps the epoch and reclaims any retired tables no open
// snapshot can reference.
func (ec *epochCore) advance() uint64 {
	ec.mu.Lock()
	e := ec.epoch.Add(1)
	ec.reclaimLocked()
	ec.mu.Unlock()
	return e
}

// register opens a snapshot at the current epoch and returns it. Must be
// called BEFORE pinning the root pointer: a root retired between the two
// steps then carries a retire epoch >= the registered epoch and stays
// pinned.
func (ec *epochCore) register() uint64 {
	ec.mu.Lock()
	if ec.live == nil {
		ec.live = make(map[uint64]int)
	}
	e := ec.epoch.Load()
	ec.live[e]++
	ec.mu.Unlock()
	return e
}

// release closes a snapshot opened at epoch e and reclaims anything it
// was the last pin for.
func (ec *epochCore) release(e uint64) {
	ec.mu.Lock()
	if n := ec.live[e]; n <= 1 {
		delete(ec.live, e)
	} else {
		ec.live[e] = n - 1
	}
	ec.reclaimLocked()
	ec.mu.Unlock()
}

// retire parks a superseded root table in the registry at the current
// epoch. Called by advanceRoot (the migration winner moving cur past a
// drained table) and Clear (installing a fresh table over the old root).
func (ec *epochCore) retire(tab any) {
	ec.mu.Lock()
	ec.retired = append(ec.retired, retiredTable{epoch: ec.epoch.Load(), tab: tab})
	ec.mu.Unlock()
}

// reclaimLocked drops every retired table strictly older than the oldest
// open snapshot (all of them when no snapshot is open). Caller holds mu.
func (ec *epochCore) reclaimLocked() {
	min := ec.epoch.Load()
	for e := range ec.live {
		if e < min {
			min = e
		}
	}
	keep := ec.retired[:0]
	for _, r := range ec.retired {
		if r.epoch >= min {
			keep = append(keep, r)
		}
	}
	for i := len(keep); i < len(ec.retired); i++ {
		ec.retired[i] = retiredTable{} // release for GC
	}
	ec.retired = keep
}

// retiredCount reports how many superseded tables the registry is
// holding; the reclamation tests observe it.
func (ec *epochCore) retiredCount() int {
	ec.mu.Lock()
	n := len(ec.retired)
	ec.mu.Unlock()
	return n
}

// snapRef is the shared open/close state of a snapshot handle.
type snapRef struct {
	ec     *epochCore
	epoch  uint64
	closed atomic.Bool
}

func (s *snapRef) Epoch() uint64 { return s.epoch }

func (s *snapRef) Close() {
	if s.closed.CompareAndSwap(false, true) {
		s.ec.release(s.epoch)
	}
}

// phaseDebug is the ridtdebug-tag phase-violation detector. The table's
// bulk operations (Len, Range, Clear, Reserve, Flatten, AdvanceEpoch) are
// phase operations: running one concurrently with a mutator corrupts
// silently (torn sweeps, lost writes behind a Clear).
// Under `-tags ridtdebug` every mutator entry/exit maintains an atomic
// in-flight count and every phase operation asserts it is zero; in the
// default build debugPhase is a false constant and the hooks compile
// away, exactly like internal/fault's sites.
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
