package hashtable

// Deterministic -race stress test: GOMAXPROCS goroutines hammer the
// lock-free table through a phase barrier. Each phase's workload is chosen
// so the final contents are computable in closed form regardless of
// interleaving, so the test asserts exact state, not just absence of
// crashes. Run with -race (the CI race job does).

import (
	"runtime"
	"sync"
	"testing"
)

// barrier is a reusable all-arrive phase barrier for p participants.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	p     int
	count int
	phase int
}

func newBarrier(p int) *barrier {
	b := &barrier{p: p}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until all p participants have arrived, then releases them
// together into the next phase.
func (b *barrier) await() {
	b.mu.Lock()
	phase := b.phase
	b.count++
	if b.count == b.p {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
	} else {
		for b.phase == phase {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}

func TestInlineStressPhases(t *testing.T) {
	p := runtime.GOMAXPROCS(0)
	if p < 4 {
		p = 4 // concurrency even on single-core CI hosts
	}
	perG, incs, shared := 2000, 500, 97
	if testing.Short() {
		perG, incs = 400, 100
	}
	// Start tiny so phase 1 forces several cooperative migrations under
	// full contention.
	m := newInlineInt(2)
	bar := newBarrier(p)
	var wg sync.WaitGroup
	errs := make(chan string, p)
	for g := 0; g < p; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Phase 1: disjoint inserts (goroutine g owns keys g*perG..).
			// All goroutines also increment a small shared counter space,
			// so growth migrations race with both claims and updates.
			for i := 0; i < perG; i++ {
				k := g*perG + i
				m.Store(k, k+1)
			}
			for i := 0; i < incs; i++ {
				m.Update(1_000_000+i%shared, func(old int, ok bool) int { return old + 1 })
			}
			bar.await()
			// Phase 2: pure reads of phase 1's state, concurrent across
			// all goroutines; any torn or lost write is visible here.
			for i := 0; i < perG; i++ {
				k := ((g+1)%p)*perG + i // read a neighbor's keys
				if v, ok := m.Load(k); !ok || v != k+1 {
					errs <- "phase2 missing or wrong key"
					break
				}
			}
			bar.await()
			// Phase 3: each goroutine deletes the odd keys it owns and
			// doubles its even keys.
			for i := 0; i < perG; i++ {
				k := g*perG + i
				if k%2 == 1 {
					m.Delete(k)
				} else {
					m.Update(k, func(old int, ok bool) int { return old * 2 })
				}
			}
			bar.await()
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	// Exact final contents: even keys doubled, odd keys gone, shared
	// counters at p*incs/shared increments each.
	n := p * perG
	wantLen := n/2 + shared
	if got := m.Len(); got != wantLen {
		t.Fatalf("Len=%d want %d", got, wantLen)
	}
	for k := 0; k < n; k++ {
		v, ok := m.Load(k)
		if k%2 == 1 {
			if ok {
				t.Fatalf("deleted key %d still present (=%d)", k, v)
			}
			continue
		}
		if !ok || v != (k+1)*2 {
			t.Fatalf("key %d = (%d,%v), want %d", k, v, ok, (k+1)*2)
		}
	}
	total := 0
	for i := 0; i < shared; i++ {
		v, ok := m.Load(1_000_000 + i)
		if !ok {
			t.Fatalf("shared counter %d missing", i)
		}
		total += v
	}
	if total != p*incs {
		t.Fatalf("shared counters lost increments: total=%d want %d", total, p*incs)
	}
}
