package hashtable

import (
	"runtime"
	"sync/atomic"

	"repro/internal/parallel"
)

// This file implements the lock-free table. See DESIGN.md for the full
// protocol.
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
// Growth: Reserve, a phase operation, is the one growth point. When the
// claim count plus the keys a phase may add would pass the load limit, it
// rehashes the live entries into a table at least twice as large on the
// parallel pool and swaps the root. Mutators never grow the table: a
// claim past the limit panics, naming Reserve.
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
//     lets an update callback run exactly once, with no CAS-retry purity
//     hazards; readers never block writers and spin only while a write is
//     in flight (the same bounded window as the slotBusy spin). All word
//     accesses are atomic loads/stores, so the seqlock is race-detector
//     clean.
//
// The sequence field wraps after 2^29 writes to one slot; a reader would
// have to sleep across exactly that many writes to be fooled (the
// standard seqlock caveat, irrelevant at these lifetimes).

// Slot states. Transitions: empty -> busy -> full (claim). Full slots stay
// full.
const (
	slotEmpty uint32 = iota
	slotBusy         // key being published by a claimer
	slotFull         // key readable; meta and words hold the rest of the state
)

// Meta flags.
const (
	imLock  uint32 = 1 << 0 // writer holds the slot
	imHas   uint32 = 1 << 1 // a value or tombstone has been published
	imDel   uint32 = 1 << 2 // tombstone: key present in chain, mapping absent
	imFlags uint32 = imLock | imHas | imDel
	imSeq   uint32 = 1 << 3 // lowest sequence bit; bumped on every publish
)

type inSlot[K comparable] struct {
	state  atomic.Uint32 // slotEmpty/slotBusy/slotFull
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

// live reports whether meta m holds a value (published, not a tombstone).
//
//ridt:noalloc
func live(m uint32) bool { return m&(imHas|imDel) == imHas }

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

// publish releases the write lock with new flags and a bumped sequence.
// Words must have been stored before the call.
//
//ridt:noalloc
func (sl *inSlot[K]) publish(m, flags uint32) {
	sl.meta.Store(((m &^ imFlags) + imSeq) | flags)
}

type inTable[K comparable] struct {
	slots  []inSlot[K]
	mask   uint64
	limit  int64        // most claims the table admits (3/4 of its slots)
	claims atomic.Int64 // slots ever claimed (live + tombstoned keys)
}

// newInTable returns a table of at least size slots (a power of two, at
// least 8).
func newInTable[K comparable](size int) *inTable[K] {
	n := 8
	for n < size {
		n *= 2
	}
	return &inTable[K]{
		slots: make([]inSlot[K], n),
		mask:  uint64(n - 1),
		limit: int64(n) * 3 / 4,
	}
}

// slotsFor is the table size that admits keys claims: keys*4/3+1 slots
// keep keys at or under the 3/4 load limit.
func slotsFor(keys int) int { return keys*4/3 + 1 }

// overfull is the panic message of a claim past the load limit.
const overfull = "hashtable: LockFreeInline claim past its load limit; Reserve room for a phase's new keys before the phase"

// LockFreeInline is a lock-free, phase-concurrent hash table for values
// that encode into two 64-bit words (small PODs). Any mix of
// Load/Store/Delete/Update may run from any number of goroutines, and
// snapshots may be opened and read at any time. Reserve, the one growth
// point, is a phase operation that must not run concurrently with
// mutators.
//
// Update runs its callback exactly once per call, under the slot's write
// lock, and always publishes its result. The callback may therefore have
// side effects — the closest-pair grids link a point into its cell's list
// from inside Update — but it must be short and must not call back into
// the table.
//
// The zero value is not usable; construct with NewLockFreeInline.
type LockFreeInline[K comparable, V any] struct {
	phaseDebug
	hash Hasher[K]
	enc  func(V) (uint64, uint64)
	dec  func(uint64, uint64) V
	cur  atomic.Pointer[inTable[K]]
}

// NewLockFreeInline returns an inline-slot table in which capacity keys
// fit without Reserve. enc/dec are the value codec; they must be pure
// inverses (dec(enc(v)) == v for every stored v).
func NewLockFreeInline[K comparable, V any](capacity int, hash Hasher[K],
	enc func(V) (uint64, uint64), dec func(uint64, uint64) V) *LockFreeInline[K, V] {
	h := &LockFreeInline[K, V]{hash: hash, enc: enc, dec: dec}
	h.cur.Store(newInTable[K](slotsFor(capacity)))
	return h
}

// hashOf applies a final mix so weak hashers (identity on already-spread
// keys) still probe well in the low bits.
func (h *LockFreeInline[K, V]) hashOf(k K) uint64 { return Mix64(h.hash(k)) }

// inFindRead probes t for k without claiming. It returns the slot holding
// k, or nil when k is absent from t.
//
//ridt:noalloc
func inFindRead[K comparable](t *inTable[K], k K, hv uint64) *inSlot[K] {
	for i, n := hv&t.mask, uint64(0); n <= t.mask; i, n = (i+1)&t.mask, n+1 {
		sl := &t.slots[i]
		for {
			switch sl.state.Load() {
			case slotEmpty:
				return nil
			case slotBusy:
				runtime.Gosched() // claimer is publishing the key; tiny window
				continue
			case slotFull:
				if sl.key == k {
					return sl
				}
			}
			break
		}
	}
	return nil
}

// findClaim probes t for k, claiming the first empty slot if k is absent.
// A claim past t's load limit panics: growth happens only in Reserve.
//
//ridt:noalloc
func findClaim[K comparable](t *inTable[K], k K, hv uint64) *inSlot[K] {
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
				if t.claims.Add(1) > t.limit {
					panic(overfull)
				}
				return sl
			case slotBusy:
				runtime.Gosched()
				continue
			case slotFull:
				if sl.key == k {
					return sl
				}
			}
			break
		}
	}
	panic(overfull)
}

// Load returns the value for k, if present.
//
//ridt:noalloc
func (h *LockFreeInline[K, V]) Load(k K) (V, bool) {
	return h.loadFrom(h.cur.Load(), k)
}

// loadFrom is Load against a caller-pinned table; snapshots read through
// it. Every value read goes through the validated seqlock read, so a
// snapshot reader racing a writer storm can spin but never observe torn
// words.
//
//ridt:noalloc
func (h *LockFreeInline[K, V]) loadFrom(t *inTable[K], k K) (V, bool) {
	var zero V
	sl := inFindRead(t, k, h.hashOf(k))
	if sl == nil {
		return zero, false
	}
	// A claim with no published value linearizes before its store.
	m, a, b := sl.read()
	if !live(m) {
		return zero, false
	}
	return h.dec(a, b), true
}

// Update applies f to the current value for k (zero value and ok=false if
// absent) and stores the result. f runs exactly once, under the slot's
// write lock (see the type doc), and its answer is always published. The
// write allocates nothing.
//
//ridt:noalloc
func (h *LockFreeInline[K, V]) Update(k K, f func(old V, ok bool) V) {
	if debugPhase {
		h.muts.Add(1)
		defer h.muts.Add(-1)
	}
	sl := findClaim(h.cur.Load(), k, h.hashOf(k))
	m := sl.lock()
	var old V
	present := live(m)
	if present {
		old = h.dec(sl.w0.Load(), sl.w1.Load())
	}
	a, b := h.enc(f(old, present))
	sl.w0.Store(a)
	sl.w1.Store(b)
	sl.publish(m, imHas)
}

// Store sets the value for k. The write is allocation-free.
func (h *LockFreeInline[K, V]) Store(k K, v V) {
	h.Update(k, func(V, bool) V { return v })
}

// Delete removes k (value-level tombstone, dropped at the next growth).
// Deleting an absent key claims nothing: the probe is read-only.
//
//ridt:noalloc
func (h *LockFreeInline[K, V]) Delete(k K) {
	if debugPhase {
		h.muts.Add(1)
		defer h.muts.Add(-1)
	}
	sl := inFindRead(h.cur.Load(), k, h.hashOf(k))
	if sl == nil {
		return
	}
	m := sl.lock()
	if !live(m) {
		sl.meta.Store(m) // unlock unchanged: nothing was written
		return
	}
	sl.publish(m, imHas|imDel)
}

// rehashGrain is the slot count one pool task of Reserve's rehash covers.
const rehashGrain = 1024

// Reserve makes room for more new keys. When the claim count plus more
// would pass the load limit, it rehashes the live entries (tombstones are
// dropped) on the parallel pool into a table at least twice as large and
// swaps the root; otherwise it does nothing. Phase operation: no mutator
// may run concurrently. A snapshot opened before the swap keeps the old
// table, which no later write reaches.
func (h *LockFreeInline[K, V]) Reserve(more int) {
	h.assertQuiesced("Reserve")
	t := h.cur.Load()
	need := t.claims.Load() + int64(more)
	if need <= t.limit {
		return
	}
	nt := newInTable[K](max(2*len(t.slots), slotsFor(int(need))))
	parallel.Blocks(0, len(t.slots), rehashGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sl := &t.slots[i]
			if sl.state.Load() != slotFull {
				continue
			}
			m, a, b := sl.read()
			if !live(m) {
				continue
			}
			ns := findClaim(nt, sl.key, h.hashOf(sl.key))
			ns.w0.Store(a)
			ns.w1.Store(b)
			ns.publish(ns.meta.Load(), imHas)
		}
	})
	h.cur.Store(nt)
}

// inSnap is the table's snapshot: an O(1) pin of the root table. All
// reads go through the validated seqlock read, so snapshot readers racing
// a writer storm spin through in-flight writes but never observe torn
// words.
type inSnap[K comparable, V any] struct {
	h    *LockFreeInline[K, V]
	root *inTable[K]
}

// Snapshot opens a read-only view of the table. O(1): it pins the root
// table pointer.
func (h *LockFreeInline[K, V]) Snapshot() Snap[K, V] {
	return &inSnap[K, V]{h: h, root: h.cur.Load()}
}

//ridt:noalloc
func (s *inSnap[K, V]) Load(k K) (V, bool) {
	return s.h.loadFrom(s.root, k)
}

func (s *inSnap[K, V]) Len() int {
	n := 0
	s.Range(func(K, V) bool { n++; return true })
	return n
}

// Range calls f for every live entry of the pinned table until f returns
// false.
func (s *inSnap[K, V]) Range(f func(k K, v V) bool) {
	t := s.root
	for i := range t.slots {
		sl := &t.slots[i]
		if sl.state.Load() != slotFull {
			continue
		}
		if m, a, b := sl.read(); live(m) && !f(sl.key, s.h.dec(a, b)) {
			return
		}
	}
}

// EncInt32/DecInt32 are the codec for int32 values (the closest-pair cell
// heads).
func EncInt32(v int32) (uint64, uint64) { return uint64(uint32(v)), 0 }
func DecInt32(a, _ uint64) int32        { return int32(uint32(a)) }
