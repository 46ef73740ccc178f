//go:build ridtfault

package hashtable

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/parallel"
)

// Migration fault stress (ridtfault build): a seeded panic at the
// TableMigrate site kills one writer mid-growth. The site fires BEFORE the
// chunk claim, so no migration chunk is ever stranded claimed-but-unmoved;
// the surviving writers (or a final Flatten) complete the migration and
// the table must end exactly consistent with the writes that returned.

func runMigratePanicStress(t *testing.T, mk func() Table[int, int]) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	if prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	defer fault.Disable()
	const n = 1 << 14
	for _, seed := range []uint64{3, 17, 88} {
		if err := fault.Enable(fault.Config{
			Seed:      seed,
			PanicRate: 0.02,
			DelayRate: 0.1,
			MaxPanics: 1,
			SiteMask:  fault.MaskOf(fault.TableMigrate),
		}); err != nil {
			t.Fatal(err)
		}
		h := mk()
		done := make([]atomic.Bool, n)
		died := func() (died bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(fault.Injected); !ok {
						panic(r)
					}
					died = true
				}
			}()
			parallel.ForGrain(0, n, 32, func(i int) {
				h.Store(i, i*7+int(seed))
				done[i].Store(true)
			})
			return false
		}()
		if fault.Hits(fault.TableMigrate) == 0 {
			t.Fatalf("seed %d: migration site never reached — seed capacity too large?", seed)
		}
		// The dying writer's in-flight Store may or may not have landed;
		// everything flagged done MUST have, with its exact value, and any
		// stray entry must carry a value some write actually produced.
		h.Flatten()
		completed := 0
		for i := 0; i < n; i++ {
			v, ok := h.Load(i)
			if done[i].Load() {
				completed++
				if !ok || v != i*7+int(seed) {
					t.Fatalf("seed %d (died=%v): completed write %d missing or wrong (%d, %v)",
						seed, died, i, v, ok)
				}
			} else if ok && v != i*7+int(seed) {
				t.Fatalf("seed %d: stray entry %d has impossible value %d", seed, i, v)
			}
		}
		if died && completed == n {
			t.Fatalf("seed %d: a writer died yet all writes completed", seed)
		}
		// The abandoned table stays fully usable: finish the workload with
		// injection off and verify exact final contents.
		fault.Disable()
		parallel.ForGrain(0, n, 32, func(i int) { h.Store(i, i*7+int(seed)) })
		if h.Len() != n {
			t.Fatalf("seed %d: refilled table Len=%d, want %d", seed, h.Len(), n)
		}
		count := 0
		h.Range(func(k, v int) bool {
			if v != k*7+int(seed) {
				t.Errorf("seed %d: key %d has value %d after refill", seed, k, v)
			}
			count++
			return true
		})
		if t.Failed() {
			t.FailNow()
		}
		if count != n {
			t.Fatalf("seed %d: Range saw %d entries, want %d", seed, count, n)
		}
	}
}

func TestLockFreeInlineMigratePanic(t *testing.T) {
	runMigratePanicStress(t, func() Table[int, int] {
		return NewLockFreeInline[int, int](16, intHasher, EncInt, DecInt)
	})
}

// TestMigrateDelayStorm floods the migration site with delays only: every
// writer repeatedly loses its turn mid-help, which reorders cooperative
// migration arbitrarily without killing anyone. Contents must be exact.
func TestMigrateDelayStorm(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	if prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	defer fault.Disable()
	if err := fault.Enable(fault.Config{
		Seed:      5,
		DelayRate: 0.5,
		SiteMask:  fault.MaskOf(fault.TableMigrate),
	}); err != nil {
		t.Fatal(err)
	}
	const n = 1 << 14
	h := NewLockFreeInline[int, int](16, intHasher, EncInt, DecInt)
	parallel.ForGrain(0, n, 32, func(i int) { h.Store(i, i) })
	if h.Len() != n {
		t.Fatalf("Len=%d, want %d", h.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := h.Load(i); !ok || v != i {
			t.Fatalf("key %d: (%d, %v)", i, v, ok)
		}
	}
}
