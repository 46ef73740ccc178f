package hashtable

// The test oracle: Table is the operation set the equivalence, fuzz and
// snapshot suites program against, and Map, a sharded mutex map, is the
// reference implementation they check LockFreeInline against. Map's
// update callbacks run under a shard lock and its snapshots are frozen
// copies, so its semantics are trivially exact.

import "sync"

// Table is the operation set the suites program against; Map and
// LockFreeInline both implement it. Sweeps go through Snapshot.
type Table[K comparable, V any] interface {
	Load(k K) (V, bool)
	Store(k K, v V)
	Delete(k K)
	Update(k K, f func(old V, ok bool) V)
	// Reserve makes room for more new keys before a phase that adds
	// them (phase operation on LockFreeInline; a no-op on Map).
	Reserve(more int)
	// Snapshot opens a read-only view that stays torn-free and valid
	// while mutators keep running; see Snap for the exact guarantees.
	// O(1) on LockFreeInline, a frozen copy on Map.
	Snapshot() Snap[K, V]
}

var (
	_ Table[int, int] = (*Map[int, int])(nil)
	_ Table[int, int] = (*LockFreeInline[int, int])(nil)
)

// Map is a concurrent hash map sharded by key hash. The zero value is not
// usable; construct with New.
type Map[K comparable, V any] struct {
	shards []shard[K, V]
	mask   uint64
	hash   Hasher[K]
}

type shard[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
	_  [40]byte // pad to reduce false sharing between adjacent shards
}

// New returns a map with the given number of shards (rounded up to a power
// of two, minimum 1) and an expected total capacity hint.
func New[K comparable, V any](shardCount, capacity int, hash Hasher[K]) *Map[K, V] {
	sc := 1
	for sc < shardCount {
		sc *= 2
	}
	m := &Map[K, V]{
		shards: make([]shard[K, V], sc),
		mask:   uint64(sc - 1),
		hash:   hash,
	}
	per := capacity / sc
	if per < 8 {
		per = 8
	}
	for i := range m.shards {
		m.shards[i].m = make(map[K]V, per)
	}
	return m
}

func (m *Map[K, V]) shardFor(k K) *shard[K, V] {
	h := m.hash(k)
	// Mix the high bits down so weak hashers still spread across shards.
	h ^= h >> 32
	return &m.shards[h&m.mask]
}

// Load returns the value for k, if present.
func (m *Map[K, V]) Load(k K) (V, bool) {
	s := m.shardFor(k)
	s.mu.Lock()
	v, ok := s.m[k]
	s.mu.Unlock()
	return v, ok
}

// Store sets the value for k.
func (m *Map[K, V]) Store(k K, v V) {
	s := m.shardFor(k)
	s.mu.Lock()
	s.m[k] = v
	s.mu.Unlock()
}

// Delete removes k.
func (m *Map[K, V]) Delete(k K) {
	s := m.shardFor(k)
	s.mu.Lock()
	delete(s.m, k)
	s.mu.Unlock()
}

// Update applies f to the current value for k (zero value and ok=false if
// absent) while holding the shard lock, and stores the result. It is the
// atomic read-modify-write used to attach the two triangles of a face.
func (m *Map[K, V]) Update(k K, f func(old V, ok bool) V) {
	s := m.shardFor(k)
	s.mu.Lock()
	old, ok := s.m[k]
	s.m[k] = f(old, ok)
	s.mu.Unlock()
}

// Len returns the total number of entries (taking each shard lock briefly).
func (m *Map[K, V]) Len() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Range calls f for every entry until f returns false. Concurrent mutation
// of other shards during iteration is allowed; the snapshot is per-shard.
func (m *Map[K, V]) Range(f func(k K, v V) bool) {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		keys := make([]K, 0, len(s.m))
		vals := make([]V, 0, len(s.m))
		for k, v := range s.m {
			keys = append(keys, k)
			vals = append(vals, v)
		}
		s.mu.Unlock()
		for j := range keys {
			if !f(keys[j], vals[j]) {
				return
			}
		}
	}
}

// Reserve is a no-op: Go maps grow on their own.
func (m *Map[K, V]) Reserve(int) {}

// mapSnap is Map's snapshot: a materialized copy taken shard by shard
// under the shard locks. The sharded map mutates values in place with no
// versioning, so pinning is impossible — the copy is the point: it makes
// Map the semantics oracle for the snapshot tests (its snapshots are
// trivially frozen). Copying is O(n); take Map snapshots at quiesced
// boundaries, as with any Map-wide sweep.
type mapSnap[K comparable, V any] struct {
	m map[K]V
}

// Snapshot returns a frozen copy of the map's contents. Each shard is
// copied under its lock; for a cross-shard-consistent snapshot call it
// from a quiesced boundary (the round protocol does).
func (m *Map[K, V]) Snapshot() Snap[K, V] {
	s := &mapSnap[K, V]{m: make(map[K]V, m.Len())}
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for k, v := range sh.m {
			s.m[k] = v
		}
		sh.mu.Unlock()
	}
	return s
}

//ridt:noalloc
func (s *mapSnap[K, V]) Load(k K) (V, bool) {
	v, ok := s.m[k]
	return v, ok
}

func (s *mapSnap[K, V]) Len() int { return len(s.m) }

func (s *mapSnap[K, V]) Range(f func(k K, v V) bool) {
	for k, v := range s.m {
		if !f(k, v) {
			return
		}
	}
}
