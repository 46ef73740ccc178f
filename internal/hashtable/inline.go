package hashtable

import (
	"runtime"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/parallel"
)

// This file implements the lock-free growable table. See DESIGN.md for the
// full protocol.
//
// Layout: open addressing with linear probing. A slot is claimed for a key
// with a CAS on its state word (empty -> busy -> full); once full, a slot's
// key never changes and the slot is never freed, so probe chains only grow
// and a probe that reaches an empty slot has proven absence. The value
// lives inline in the slot: two 64-bit words guarded by a per-slot seqlock
// (a codec supplied at construction maps V to and from the words), so no
// write path allocates. Deletion is a value-level tombstone that keeps the
// probe chain intact.
//
// Growth: when the claim count passes the load limit, a larger table is
// linked via next and every thread that touches the table helps migrate:
// migration chunks are claimed with an atomic counter (the same dynamic
// self-scheduling as the parallel pool), empty slots are poisoned
// (empty -> moved) so late inserts cannot land behind the sweep, and full
// slots are frozen under their write lock, after which their value is
// installed into the next table if the key has no state there yet. Any
// operation that meets a frozen slot first completes that key's migration
// itself, so no update can be lost between freeze and install. When the
// last chunk finishes, the root pointer advances.
//
// Seqlock cell. Each full slot carries a 32-bit meta word and two value
// words (w0, w1):
//
//   - Readers load meta, then the words, then meta again; a stable,
//     unlocked meta means the words are a consistent snapshot.
//   - Writers claim the slot's write lock with one CAS on meta (the low
//     bit), mutate the words, and release by storing meta with the
//     sequence bumped — readers that overlapped retry. Writers on the
//     same slot exclude each other (a per-slot spinlock), which is what
//     lets an update callback run exactly once, after the migration
//     check, with no CAS-retry purity hazards; readers never block
//     writers and spin only while a write is in flight (the same bounded
//     window as the slotBusy spin). All word accesses are atomic
//     loads/stores, so the seqlock is race-detector clean.
//
// The sequence field wraps after 2^27 writes to one slot; a reader would
// have to sleep across exactly that many writes to be fooled (the
// standard seqlock caveat, irrelevant at these lifetimes).

// Slot states. Transitions: empty -> busy -> full (claim), and
// empty -> moved (migration poisoning). Full slots stay full; their
// migration status lives in the meta word.
const (
	slotEmpty uint32 = iota
	slotBusy         // key being published by a claimer
	slotFull         // key readable; meta and words hold the rest of the state
	slotMoved        // poisoned empty slot: key absent here, look in next
)

// Meta flags. A ghost is the freeze of a claimed slot whose value had not
// been published yet: unlike a frozen tombstone (moved|del), it says the
// key never had a value in this table, so a pending install for it must
// carry on to the next table rather than be dropped.
const (
	imLock  uint32 = 1 << 0 // writer (or freezer) holds the slot
	imHas   uint32 = 1 << 1 // a value or tombstone has been published
	imDel   uint32 = 1 << 2 // tombstone: key present in chain, mapping absent
	imMoved uint32 = 1 << 3 // frozen by migration; words never change again
	imGhost uint32 = 1 << 4 // frozen with no published value
	imFlags uint32 = imLock | imHas | imDel | imMoved | imGhost
	imSeq   uint32 = 1 << 5 // lowest sequence bit; bumped on every publish
)

type inSlot[K comparable] struct {
	state  atomic.Uint32 // slotEmpty/slotBusy/slotFull/slotMoved
	meta   atomic.Uint32 // seqlock word: sequence | flags
	key    K
	w0, w1 atomic.Uint64 // encoded value, valid per the meta protocol
}

// read returns a consistent (meta, w0, w1) snapshot of the slot.
//
//ridt:noalloc
func (sl *inSlot[K]) read() (m uint32, a, b uint64) {
	for {
		m = sl.meta.Load()
		if m&imLock != 0 {
			runtime.Gosched() // write in flight; tiny window
			continue
		}
		if m&imHas == 0 {
			return m, 0, 0 // no published words to read
		}
		a, b = sl.w0.Load(), sl.w1.Load()
		if sl.meta.Load() == m {
			return m, a, b
		}
	}
}

// lock claims the slot's write lock and returns the pre-lock meta.
//
//ridt:noalloc
func (sl *inSlot[K]) lock() uint32 {
	for {
		m := sl.meta.Load()
		if m&imLock != 0 {
			runtime.Gosched()
			continue
		}
		if sl.meta.CompareAndSwap(m, m|imLock) {
			return m
		}
	}
}

// unlock releases the write lock with the slot unchanged (no publish, no
// sequence bump: nothing was written, so overlapping readers stay valid).
//
//ridt:noalloc
func (sl *inSlot[K]) unlock(m uint32) { sl.meta.Store(m) }

// publish releases the write lock with new flags and a bumped sequence.
// Words must have been stored before the call.
//
//ridt:noalloc
func (sl *inSlot[K]) publish(m, flags uint32) {
	sl.meta.Store(((m &^ imFlags) + imSeq) | flags)
}

// migrateChunk is the number of slots one migration claim covers; small
// enough that per-operation helpers finish a chunk quickly, large enough to
// amortize the claim.
const migrateChunk = 256

type inTable[K comparable] struct {
	slots  []inSlot[K]
	mask   uint64
	limit  int64        // claim count that triggers growth (3/4 of capacity)
	claims atomic.Int64 // slots ever claimed (live + tombstoned keys)

	next     atomic.Pointer[inTable[K]]
	migClaim atomic.Int64 // next unclaimed migration chunk
	migDone  atomic.Int64 // chunks fully migrated
	nchunks  int64
}

func newInTable[K comparable](capacity int) *inTable[K] {
	n := 8
	for n < capacity {
		n *= 2
	}
	return &inTable[K]{
		slots:   make([]inSlot[K], n),
		mask:    uint64(n - 1),
		limit:   int64(n) * 3 / 4,
		nchunks: int64((n + migrateChunk - 1) / migrateChunk),
	}
}

// LockFreeInline is a lock-free, growable, phase-concurrent hash table for
// values that encode into two 64-bit words (small PODs). Any mix of
// Load/Store/Delete/Update/UpdateAndGet/LoadOrStore may run from any number
// of goroutines, including across a growth; the bulk operations
// (Len, Range, Clear, Reserve, Flatten, AdvanceEpoch) are phase operations
// that must not run concurrently with mutators.
//
// Update and UpdateAndGet run their callback exactly once per call, under
// the slot's write lock and after the migration check, and always publish
// its result (LoadOrStore has the same once-only decision). The callback
// may therefore have side effects — the closest-pair grids link a point
// into its cell's list from inside Update — but it must be short and must
// not call back into the table.
//
// The zero value is not usable; construct with NewLockFreeInline.
type LockFreeInline[K comparable, V any] struct {
	epochCore
	phaseDebug
	hash Hasher[K]
	enc  func(V) (uint64, uint64)
	dec  func(uint64, uint64) V
	cur  atomic.Pointer[inTable[K]]
}

// NewLockFreeInline returns an inline-slot table pre-sized for capacity
// entries. enc/dec are the value codec; they must be pure inverses
// (dec(enc(v)) == v for every stored v).
func NewLockFreeInline[K comparable, V any](capacity int, hash Hasher[K],
	enc func(V) (uint64, uint64), dec func(uint64, uint64) V) *LockFreeInline[K, V] {
	h := &LockFreeInline[K, V]{hash: hash, enc: enc, dec: dec}
	h.cur.Store(newInTable[K](capacity*4/3 + 1))
	return h
}

// hashOf applies a final mix so weak hashers (identity on already-spread
// keys) still probe well in the low bits.
func (h *LockFreeInline[K, V]) hashOf(k K) uint64 { return Mix64(h.hash(k)) }

// inFindRead probes t for k without claiming. It returns the slot holding
// k, or nil with descend=false when k is provably absent from t, or nil
// with descend=true when the probe hit a poisoned slot (k's state lives in
// t.next).
//
//ridt:noalloc
func inFindRead[K comparable](t *inTable[K], k K, hv uint64) (s *inSlot[K], descend bool) {
	for i, n := hv&t.mask, uint64(0); n <= t.mask; i, n = (i+1)&t.mask, n+1 {
		sl := &t.slots[i]
		for {
			switch sl.state.Load() {
			case slotEmpty:
				return nil, false
			case slotBusy:
				runtime.Gosched() // claimer is publishing the key; tiny window
				continue
			case slotMoved:
				return nil, true
			case slotFull:
				if sl.key == k {
					return sl, false
				}
			}
			break
		}
	}
	// Probed every slot without an empty: treat as a full table (can only
	// happen transiently at extreme load); the key is not here.
	return nil, false
}

// findClaim probes t for k, claiming the first empty slot if k is absent.
// ok=false with descend=true means the probe hit a poisoned slot; ok=false
// with descend=false means the table is over-full and must grow.
//
//ridt:noalloc
func (h *LockFreeInline[K, V]) findClaim(t *inTable[K], k K, hv uint64) (s *inSlot[K], descend, ok bool) {
	for i, n := hv&t.mask, uint64(0); n <= t.mask; i, n = (i+1)&t.mask, n+1 {
		sl := &t.slots[i]
		for {
			switch sl.state.Load() {
			case slotEmpty:
				if !sl.state.CompareAndSwap(slotEmpty, slotBusy) {
					continue // lost the race; re-read the new state
				}
				sl.key = k
				sl.state.Store(slotFull)
				if c := t.claims.Add(1); c >= t.limit {
					h.grow(t, 0)
				}
				return sl, false, true
			case slotBusy:
				runtime.Gosched()
				continue
			case slotMoved:
				return nil, true, false
			case slotFull:
				if sl.key == k {
					return sl, false, true
				}
			}
			break
		}
	}
	return nil, false, false
}

// grow links a next table of at least minCap (0 means double) under t and
// helps migrate a little. Idempotent under races: only one next wins.
func (h *LockFreeInline[K, V]) grow(t *inTable[K], minCap int) {
	if t.next.Load() == nil {
		// Small tables quadruple so a from-scratch fill pays O(log n)
		// migration rounds over few slots; big ones double to bound the
		// memory spike of a live migration.
		factor := 4
		if len(t.slots) >= 1<<16 {
			factor = 2
		}
		want := factor * len(t.slots)
		if want < minCap {
			want = minCap
		}
		t.next.CompareAndSwap(nil, newInTable[K](want))
	}
	h.helpMigrate(t, 2) // bounded help keeps per-op cost O(chunk)
}

// helpMigrate claims and migrates up to maxChunks chunks of t (all of them
// when maxChunks <= 0) and advances the root when t is drained.
func (h *LockFreeInline[K, V]) helpMigrate(t *inTable[K], maxChunks int) {
	h.helpMigrateCtl(t, maxChunks, true)
}

// helpMigrateCtl is helpMigrate with the fault site controllable: the
// nested help from installFrozen passes inject=false, because its caller
// may hold a claimed-but-unfinished chunk of the outer table, and an
// injected death there would strand that chunk (the fault model only
// kills participants *between* protocol steps).
func (h *LockFreeInline[K, V]) helpMigrateCtl(t *inTable[K], maxChunks int, inject bool) {
	nt := t.next.Load()
	if nt == nil {
		return
	}
	for done := 0; maxChunks <= 0 || done < maxChunks; done++ {
		// The fault site fires BEFORE the chunk claim: an injected panic
		// after migClaim.Add but before migDone.Add would strand a claimed
		// chunk no other helper can re-claim, freezing flatten forever.
		// Before the claim, a panicking helper leaves the protocol exactly
		// where it was — any other helper finishes the migration.
		if inject && fault.Enabled {
			fault.Inject(fault.TableMigrate)
		}
		c := t.migClaim.Add(1) - 1
		if c >= t.nchunks {
			break
		}
		lo := int(c) * migrateChunk
		hi := lo + migrateChunk
		if hi > len(t.slots) {
			hi = len(t.slots)
		}
		for i := lo; i < hi; i++ {
			h.migrateSlot(&t.slots[i], nt)
		}
		if t.migDone.Add(1) == t.nchunks {
			h.advanceRoot()
		}
	}
}

// migrateSlot freezes one slot and installs its live value into nt. The
// freeze happens under the slot's write lock, so it cannot interleave with
// a half-finished write; once imMoved is published the words never change.
func (h *LockFreeInline[K, V]) migrateSlot(sl *inSlot[K], nt *inTable[K]) {
	for {
		switch sl.state.Load() {
		case slotEmpty:
			if sl.state.CompareAndSwap(slotEmpty, slotMoved) {
				return
			}
			continue
		case slotBusy:
			runtime.Gosched()
			continue
		case slotMoved:
			return
		}
		m := sl.lock()
		if m&imMoved != 0 {
			sl.unlock(m)
			return // already frozen (and installed) by a racing operation
		}
		if m&imHas == 0 {
			// Claimed but no value published yet: freeze as a ghost. The
			// pending publisher will take the lock, see the ghost, and redo
			// its write in the next table.
			sl.publish(m, imMoved|imGhost)
			return
		}
		sl.publish(m, (m&(imHas|imDel))|imMoved)
		if m&imDel == 0 {
			h.installFrozen(nt, sl.key, sl.w0.Load(), sl.w1.Load())
		}
		return
	}
}

// installFrozen writes a frozen value for k into nt, only if k has no
// published state there yet. Every operation that meets a frozen slot
// calls this before continuing in nt, so the frozen value is installed
// exactly once no matter who wins the race.
func (h *LockFreeInline[K, V]) installFrozen(nt *inTable[K], k K, a, b uint64) {
	hv := h.hashOf(k)
	for {
		sl, descend, ok := h.findClaim(nt, k, hv)
		if ok {
			m := sl.lock()
			switch {
			case m&imGhost != 0:
				// nt's own migration ghost-froze our claimed slot before the
				// value landed: the key is still absent there, so the install
				// carries on to nt's next table.
				sl.unlock(m)
				nt = nt.next.Load()
				continue
			case m&(imHas|imMoved) != 0:
				// A newer write (or its frozen copy, or a genuine tombstone)
				// superseded the migrating value: drop it.
				sl.unlock(m)
				return
			}
			sl.w0.Store(a)
			sl.w1.Store(b)
			sl.publish(m, imHas)
			return
		}
		if descend {
			// nt is itself migrating past k's chain: if k never made it
			// into nt, its frozen value belongs in nt's next table.
			h.helpMigrateCtl(nt, 1, false)
			nt = nt.next.Load()
			continue
		}
		h.grow(nt, 0)
		h.helpMigrateCtl(nt, 1, false)
		nt = nt.next.Load()
	}
}

// completeMigration finishes k's migration out of a frozen slot (meta m,
// words a/b read under the slot lock) into t's successor.
func (h *LockFreeInline[K, V]) completeMigration(t *inTable[K], k K, m uint32, a, b uint64) {
	if m&imGhost == 0 && m&imDel == 0 {
		h.installFrozen(t.next.Load(), k, a, b)
	}
}

// Load returns the value for k, if present.
//
//ridt:noalloc
func (h *LockFreeInline[K, V]) Load(k K) (V, bool) {
	return h.loadFrom(h.cur.Load(), k)
}

// loadFrom is Load starting from a caller-pinned root table; snapshots
// read through it, so a pinned (possibly superseded) root resolves moved
// entries forward through the chain exactly like a live Load. Every value
// read goes through the validated seqlock read, so a snapshot reader
// racing a writer storm can spin but never observe torn words.
//
//ridt:noalloc
func (h *LockFreeInline[K, V]) loadFrom(t *inTable[K], k K) (V, bool) {
	var zero V
	hv := h.hashOf(k)
	for t != nil {
		sl, descend := inFindRead(t, k, hv)
		if sl == nil {
			if !descend {
				return zero, false
			}
			t = t.next.Load()
			continue
		}
		m, a, b := sl.read()
		if m&imMoved != 0 {
			if nv, st := h.loadAfterFreeze(t.next.Load(), k, hv); st != loadMiss {
				if st == loadDeleted {
					return zero, false
				}
				return nv, true
			}
			// Not installed in next yet: the frozen state is current.
			if m&imHas == 0 || m&imDel != 0 {
				return zero, false
			}
			return h.dec(a, b), true
		}
		if m&imHas == 0 || m&imDel != 0 {
			// Claimed with no published value (linearize before the store),
			// or tombstoned.
			return zero, false
		}
		return h.dec(a, b), true
	}
	return zero, false
}

type loadStatus int

const (
	loadMiss    loadStatus = iota // no state anywhere: key never reached these tables
	loadHit                       // live value found
	loadDeleted                   // tombstone found: key definitively absent
)

// loadAfterFreeze distinguishes "not migrated yet" (miss) from "present"
// and "deleted since migration", chasing nested migrations.
func (h *LockFreeInline[K, V]) loadAfterFreeze(t *inTable[K], k K, hv uint64) (V, loadStatus) {
	var zero V
	for t != nil {
		sl, descend := inFindRead(t, k, hv)
		if sl == nil {
			if !descend {
				return zero, loadMiss
			}
			t = t.next.Load()
			continue
		}
		m, a, b := sl.read()
		if m&imHas == 0 && m&imMoved == 0 {
			return zero, loadMiss // claim without a value yet: not installed
		}
		if m&imMoved != 0 {
			if nv, st := h.loadAfterFreeze(t.next.Load(), k, hv); st != loadMiss {
				return nv, st
			}
			if m&imGhost != 0 {
				// A ghost says the key never had a value here: whatever
				// frozen value is in limbo upstream is still current.
				return zero, loadMiss
			}
			if m&imDel != 0 {
				return zero, loadDeleted
			}
			return h.dec(a, b), loadHit
		}
		if m&imDel != 0 {
			return zero, loadDeleted
		}
		return h.dec(a, b), loadHit
	}
	return zero, loadMiss
}

// apply is the shared write path behind Store/Update/UpdateAndGet/
// LoadOrStore. f maps the current state to (new value, write?); returning
// write=false leaves the slot as is. f runs exactly once per call, under
// the slot's write lock, after the migration check: a frozen slot restarts
// the probe in the next table before f is called, and once f has run its
// answer is published and apply returns.
//
//ridt:noalloc
func (h *LockFreeInline[K, V]) apply(k K, f func(old V, present bool) (V, bool)) {
	if debugPhase {
		h.muts.Add(1)
		defer h.muts.Add(-1)
	}
	var zero V
	t := h.cur.Load()
	hv := h.hashOf(k)
	for {
		sl, descend, ok := h.findClaim(t, k, hv)
		if !ok {
			if descend {
				t = t.next.Load()
				continue
			}
			h.grow(t, 0)
			h.helpMigrate(t, 1)
			t = t.next.Load()
			continue
		}
		m := sl.lock()
		if m&imMoved != 0 {
			// Complete this key's migration before continuing in next, so no
			// window exists in which the frozen value could be lost.
			a, b := sl.w0.Load(), sl.w1.Load()
			sl.unlock(m)
			h.completeMigration(t, k, m, a, b)
			t = t.next.Load()
			continue
		}
		old, present := zero, false
		if m&imHas != 0 && m&imDel == 0 {
			old, present = h.dec(sl.w0.Load(), sl.w1.Load()), true
		}
		nv, write := f(old, present)
		if !write {
			if m&imHas == 0 {
				// A slot findClaim just claimed must not stay valueless:
				// "absent" is spelled tombstone; migration drops it.
				sl.publish(m, imHas|imDel)
			} else {
				sl.unlock(m)
			}
			return
		}
		a, b := h.enc(nv)
		sl.w0.Store(a)
		sl.w1.Store(b)
		sl.publish(m, imHas)
		return
	}
}

// Store sets the value for k. The write is allocation-free.
func (h *LockFreeInline[K, V]) Store(k K, v V) {
	h.apply(k, func(V, bool) (V, bool) { return v, true })
}

// Delete removes k (value-level tombstone, dropped at the next migration).
// Deleting an absent key claims nothing: the probe is read-only.
//
//ridt:noalloc
func (h *LockFreeInline[K, V]) Delete(k K) {
	if debugPhase {
		h.muts.Add(1)
		defer h.muts.Add(-1)
	}
	t := h.cur.Load()
	hv := h.hashOf(k)
	for t != nil {
		sl, descend := inFindRead(t, k, hv)
		if sl == nil {
			if !descend {
				return
			}
			t = t.next.Load()
			continue
		}
		m := sl.lock()
		if m&imMoved != 0 {
			a, b := sl.w0.Load(), sl.w1.Load()
			sl.unlock(m)
			h.completeMigration(t, k, m, a, b)
			t = t.next.Load()
			continue
		}
		if m&imHas == 0 || m&imDel != 0 {
			sl.unlock(m)
			return
		}
		sl.publish(m, imHas|imDel)
		return
	}
}

// Update applies f to the current value for k (zero value and ok=false if
// absent) and stores the result. f runs exactly once, under the slot's
// write lock (see the type doc). The write allocates nothing.
func (h *LockFreeInline[K, V]) Update(k K, f func(old V, ok bool) V) {
	h.apply(k, func(old V, present bool) (V, bool) {
		return f(old, present), true
	})
}

// UpdateAndGet is Update returning the stored value; f runs exactly once.
func (h *LockFreeInline[K, V]) UpdateAndGet(k K, f func(old V, ok bool) V) V {
	var res V
	h.apply(k, func(old V, present bool) (V, bool) {
		res = f(old, present)
		return res, true
	})
	return res
}

// LoadOrStore returns the existing value for k if present; otherwise it
// stores and returns v. loaded is true if the value was already present.
// This is a priority write: the first writer wins and every racer observes
// the winner's value.
func (h *LockFreeInline[K, V]) LoadOrStore(k K, v V) (actual V, loaded bool) {
	h.apply(k, func(old V, present bool) (V, bool) {
		if present {
			actual, loaded = old, true
			return old, false
		}
		actual, loaded = v, false
		return v, true
	})
	return actual, loaded
}

// Flatten drives any in-flight migration to completion, so the root table
// is a plain flat array. Phase operation: callers must quiesce mutators
// first. Bulk operations (Len, Range, Clear, ...) call it implicitly; it
// is exported so a caller that abandoned a loop mid-growth — a recovered
// panic, or bodies that stopped early on a flag of their own — can prove
// the table migration-free, and hence fully usable by per-key and bulk
// operations alike.
func (h *LockFreeInline[K, V]) Flatten() {
	h.assertQuiesced("Flatten")
	h.flatten()
}

// flatten is Flatten returning the flat root for internal bulk callers.
func (h *LockFreeInline[K, V]) flatten() *inTable[K] {
	for {
		t := h.cur.Load()
		if t.next.Load() == nil {
			return t
		}
		// Chunk claims are atomic, so pool workers compose with any
		// straggling per-op helpers; extra iterations no-op on an empty
		// claim counter.
		parallel.ForGrain(0, int(t.nchunks), 1, func(int) {
			h.helpMigrate(t, 1)
		})
		// Wait for chunks claimed by outside helpers to drain.
		for t.migDone.Load() < t.nchunks {
			runtime.Gosched()
		}
		h.advanceRoot()
	}
}

// advanceRoot moves cur past fully migrated tables, retiring each
// drained table to the epoch registry: an open snapshot may still be
// reading its slot array (see epoch.go).
func (h *LockFreeInline[K, V]) advanceRoot() {
	for {
		t := h.cur.Load()
		nt := t.next.Load()
		if nt == nil || t.migDone.Load() < t.nchunks {
			return
		}
		if h.cur.CompareAndSwap(t, nt) {
			h.retire(t)
		}
	}
}

// Len returns the number of live entries. Phase operation: callers must
// quiesce mutators first. The count runs on the parallel pool.
//
// Meta and value words go through the validated seqlock read even though
// the phase contract says no writer can be in flight: Len shares its
// sweep discipline with the Snapshot path, which has no such contract,
// and the quiesced-case cost of sl.read() is the same two meta loads a
// racing reader would pay (a raw meta load would silently rely on the
// contract — a torn count the moment it was violated).
func (h *LockFreeInline[K, V]) Len() int {
	h.assertQuiesced("Len")
	t := h.flatten()
	nb := parallel.NumBlocks(len(t.slots), 4*migrateChunk)
	counts := make([]int64, nb)
	parallel.BlocksN(0, len(t.slots), nb, func(b, lo, hi int) {
		var n int64
		for i := lo; i < hi; i++ {
			sl := &t.slots[i]
			if sl.state.Load() != slotFull {
				continue
			}
			if m, _, _ := sl.read(); m&imHas != 0 && m&imDel == 0 {
				n++
			}
		}
		counts[b] = n
	})
	return int(parallel.Sum(counts))
}

// Range calls f for every entry until f returns false. Phase operation;
// the iteration is sequential so early stop is exact. Reads are
// seqlock-validated, as in Len: a racing writer cannot hand f a value
// spliced from two different writes.
func (h *LockFreeInline[K, V]) Range(f func(k K, v V) bool) {
	h.assertQuiesced("Range")
	t := h.flatten()
	for i := range t.slots {
		sl := &t.slots[i]
		if sl.state.Load() != slotFull {
			continue
		}
		m, a, b := sl.read()
		if m&imHas == 0 || m&imDel != 0 {
			continue
		}
		if !f(sl.key, h.dec(a, b)) {
			return
		}
	}
}

// Clear removes all entries by installing a fresh minimum-size table.
// The displaced root is retired, not dropped: open snapshots keep
// reading the old contents. Phase operation.
func (h *LockFreeInline[K, V]) Clear() {
	h.assertQuiesced("Clear")
	old := h.flatten()
	h.cur.Store(newInTable[K](0))
	h.retire(old)
}

// Reserve grows the table so at least capacity entries fit without a
// migration. Phase operation.
func (h *LockFreeInline[K, V]) Reserve(capacity int) {
	h.assertQuiesced("Reserve")
	t := h.flatten()
	need := capacity*4/3 + 1
	if len(t.slots) >= need {
		return
	}
	h.grow(t, need)
	h.flatten()
}

// AdvanceEpoch flattens the table (phase operation) and bumps the epoch,
// reclaiming retired slot arrays no open snapshot can reference. The
// Delaunay round engine calls it on the face map at each committed round
// boundary, which is what makes a snapshot taken after it complete: a
// flattened root holds every key committed so far, so a post-boundary
// Snap.Range misses nothing.
func (h *LockFreeInline[K, V]) AdvanceEpoch() uint64 {
	h.assertQuiesced("AdvanceEpoch")
	if fault.Enabled {
		fault.Inject(fault.EpochPublish)
	}
	h.flatten()
	return h.advance()
}

// inSnap is the table's snapshot: an O(1) pin of the root table plus an
// epoch registration keeping retired slot arrays alive (see epoch.go).
// All reads go through the validated seqlock read, so snapshot readers
// racing a writer storm spin through in-flight writes but never observe
// torn words; moved entries resolve forward through the chain like a live
// Load.
type inSnap[K comparable, V any] struct {
	snapRef
	h    *LockFreeInline[K, V]
	root *inTable[K]
}

// Snapshot opens a read-only view of the table. O(1): registers the
// current epoch (before pinning the root — see epochCore.register) and
// pins the root pointer.
func (h *LockFreeInline[K, V]) Snapshot() Snap[K, V] {
	s := &inSnap[K, V]{h: h}
	s.ec, s.epoch = &h.epochCore, h.register()
	s.root = h.cur.Load()
	return s
}

//ridt:noalloc
func (s *inSnap[K, V]) Load(k K) (V, bool) {
	return s.h.loadFrom(s.root, k)
}

// visit calls f for every entry visible from the pinned root until f
// returns false. A moved slot's key is resolved forward through the
// chain; keys that never existed in the pinned root (inserted into a
// successor after the pin) are not visited — which is exactly the keys
// newer than the snapshot when the pin was taken at a flattened epoch
// boundary.
func (s *inSnap[K, V]) visit(f func(k K, v V) bool) {
	t := s.root
	for i := range t.slots {
		sl := &t.slots[i]
		if sl.state.Load() != slotFull {
			continue
		}
		m, a, b := sl.read()
		if m&imMoved != 0 {
			hv := s.h.hashOf(sl.key)
			if v, st := s.h.loadAfterFreeze(t.next.Load(), sl.key, hv); st != loadMiss {
				if st == loadDeleted {
					continue
				}
				if !f(sl.key, v) {
					return
				}
				continue
			}
			if m&imGhost != 0 || m&imHas == 0 || m&imDel != 0 {
				continue
			}
			if !f(sl.key, s.h.dec(a, b)) {
				return
			}
			continue
		}
		if m&imHas == 0 || m&imDel != 0 {
			continue
		}
		if !f(sl.key, s.h.dec(a, b)) {
			return
		}
	}
}

func (s *inSnap[K, V]) Len() int {
	n := 0
	s.visit(func(K, V) bool { n++; return true })
	return n
}

func (s *inSnap[K, V]) Range(f func(k K, v V) bool) {
	s.visit(f)
}

// EncInt32/DecInt32 are the codec for int32 values (the closest-pair cell
// heads).
func EncInt32(v int32) (uint64, uint64) { return uint64(uint32(v)), 0 }
func DecInt32(a, _ uint64) int32        { return int32(uint32(a)) }
