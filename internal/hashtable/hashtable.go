// Package hashtable provides the concurrent hash table behind the Delaunay
// face map and the closest-pair grids.
//
// The paper's parallel algorithms assume a work-efficient parallel hash
// table (Gil, Matias & Vishkin). LockFreeInline is that table: a
// phase-concurrent open-addressing table with CAS-claimed linear-probing
// slots and seqlock inline value slots for small POD values, so no write
// allocates. A table admits the capacity it was built for; Reserve, a
// phase operation, grows it between phases. Snapshot gives readers an
// O(1) pinned view while writers keep running (snap.go). The tests check
// it against a sharded mutex map kept as the oracle. DESIGN.md in this
// directory has the full protocol.
package hashtable

// Hasher maps a key to a 64-bit hash. Implementations must be deterministic
// and spread keys well across the low bits.
type Hasher[K comparable] func(K) uint64

// Mix64 is a convenience 64-bit mixer (SplitMix64 finalizer) for building
// Hashers from integer keys.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
