package hashtable

// Native Go fuzz target for the lock-free table: byte strings decode into
// operation streams over a small key space (so ops collide and interact),
// replayed against a plain map oracle. The seed corpus covers each op and
// a growth burst; `go test -run=Fuzz` replays the corpus in CI, and
// `go test -fuzz=FuzzLockFree ./internal/hashtable` explores from it.

import (
	"testing"
)

// FuzzLockFree decodes data as a stream of 3-byte (op, key, val) records
// over a 32-key space and checks the lock-free table against a map oracle
// after every op. The table starts at capacity 2 and every op that may
// add keys runs behind a Reserve, so streams longer than a few inserts
// grow the table.
func FuzzLockFree(f *testing.F) {
	// Seeds: each single op, an update-after-delete mix, and an insert run
	// long enough to cross two growths.
	f.Add([]byte{})
	f.Add([]byte{0, 1, 42})
	f.Add([]byte{1, 1, 0})
	f.Add([]byte{2, 1, 0})
	f.Add([]byte{3, 5, 7, 3, 5, 7, 1, 5, 0})
	f.Add([]byte{3, 9, 1, 2, 9, 0, 3, 9, 2, 1, 9, 0, 2, 9, 0, 1, 9, 0})
	grow := make([]byte, 0, 3*96)
	for i := 0; i < 96; i++ {
		grow = append(grow, 0, byte(i), byte(i*3))
	}
	f.Add(grow)
	f.Add(append(grow, 2, 5, 0, 3, 5, 9, opGrowBurst, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzReplay(t, newInlineInt(2), data)
	})
}

func fuzzReplay(t *testing.T, tab *LockFreeInline[int, int], data []byte) {
	oracle := map[int]int{}
	for i := 0; i+2 < len(data); i += 3 {
		op := int(data[i]) % numOps
		key := int(data[i+1]) % 32
		val := int(data[i+2])
		switch op {
		case opStore:
			tab.Reserve(1)
			tab.Store(key, val)
			oracle[key] = val
		case opLoad:
			got, ok := tab.Load(key)
			want, wok := oracle[key]
			if ok != wok || got != want {
				t.Fatalf("op %d: Load(%d) = (%d,%v), oracle (%d,%v)", i/3, key, got, ok, want, wok)
			}
		case opDelete:
			tab.Delete(key)
			delete(oracle, key)
		case opUpdate:
			tab.Reserve(1)
			tab.Update(key, func(old int, ok bool) int {
				if !ok {
					return val
				}
				return old*2 + val
			})
			want := val
			if old, ok := oracle[key]; ok {
				want = old*2 + val
			}
			oracle[key] = want
			if got, _ := tab.Load(key); got != want {
				t.Fatalf("op %d: Update(%d) stored %d, oracle %d", i/3, key, got, want)
			}
		case opGrowBurst:
			// Bulk insert outside the 32-key space to force a resize
			// while the small keys stay live.
			tab.Reserve(64)
			for j := 0; j < 64; j++ {
				k := 1000 + key*64 + j
				tab.Store(k, val+j)
				oracle[k] = val + j
			}
		}
	}
	s := tab.Snapshot()
	if s.Len() != len(oracle) {
		t.Fatalf("final Len=%d oracle=%d", s.Len(), len(oracle))
	}
	s.Range(func(k, v int) bool {
		if want, ok := oracle[k]; !ok || v != want {
			t.Fatalf("Range key %d = %d, oracle (%d,%v)", k, v, want, ok)
		}
		return true
	})
}
