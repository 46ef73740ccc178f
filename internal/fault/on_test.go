//go:build ridtfault

package fault

import (
	"testing"
)

func TestEnableDisable(t *testing.T) {
	if !Enabled {
		t.Fatal("Enabled must be true under ridtfault")
	}
	if err := Enable(Config{Seed: 3, DelayRate: 1}); err != nil {
		t.Fatalf("Enable: %v", err)
	}
	defer Disable()
	if !Active() {
		t.Fatal("Active must be true after Enable")
	}
	Inject(SchedSteal)
	if Hits(SchedSteal) != 1 {
		t.Fatalf("Hits = %d after one Inject", Hits(SchedSteal))
	}
	ev := Events()
	if len(ev) != 1 || ev[0] != (Event{Site: SchedSteal, Hit: 0, Action: ActDelay}) {
		t.Fatalf("Events = %v, want one delay at sched-steal hit 0", ev)
	}
	Disable()
	if Active() {
		t.Fatal("Active after Disable")
	}
	Inject(SchedSteal) // no plan: no-op
	if Hits(SchedSteal) != 0 {
		t.Fatal("counters survived Disable")
	}
}

// TestReplaySameSeed is the replay protocol in miniature: two runs with
// the same seed and the same per-site hit sequence fire the same events.
func TestReplaySameSeed(t *testing.T) {
	run := func() []Event {
		if err := Enable(Config{Seed: 42, DelayRate: 0.25, SkipRate: 0.25}); err != nil {
			t.Fatalf("Enable: %v", err)
		}
		defer Disable()
		for n := 0; n < 500; n++ {
			Inject(SchedClaim)
			SkipClaim(SchedClaim)
		}
		return Events()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no events fired at 25% rates over 500 hits")
	}
	if len(a) != len(b) {
		t.Fatalf("replay length mismatch: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPanicBudget(t *testing.T) {
	if err := Enable(Config{Seed: 9, PanicRate: 1, MaxPanics: 2}); err != nil {
		t.Fatalf("Enable: %v", err)
	}
	defer Disable()
	fired := 0
	for n := 0; n < 10; n++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					inj, ok := r.(Injected)
					if !ok {
						t.Fatalf("recovered %v, want fault.Injected", r)
					}
					if inj.Site != Type2SubRound {
						t.Fatalf("injected at %v, want type2-subround", inj.Site)
					}
					fired++
				}
			}()
			Inject(Type2SubRound)
		}()
	}
	if fired != 2 {
		t.Fatalf("fired %d panics, want MaxPanics=2", fired)
	}
	if PanicsFired() != 2 {
		t.Fatalf("PanicsFired = %d, want 2", PanicsFired())
	}
}

func TestPanicIncapableSiteDowngrades(t *testing.T) {
	if err := Enable(Config{Seed: 5, PanicRate: 1, MaxPanics: -1}); err != nil {
		t.Fatalf("Enable: %v", err)
	}
	defer Disable()
	// SchedClaim is not panic-capable: a certain-panic plan must only
	// delay there.
	for n := 0; n < 50; n++ {
		Inject(SchedClaim)
	}
	for _, e := range Events() {
		if e.Action == ActPanic {
			t.Fatalf("panic fired at non-capable site: %v", e)
		}
	}
	if PanicsFired() != 0 {
		t.Fatalf("PanicsFired = %d at a non-capable site", PanicsFired())
	}
}

// TestInjectErrBudget: a certain-error plan fires exactly MaxErrs typed
// errors, then downgrades to delays; Inject (no error return path) never
// surfaces ActErr at all.
func TestInjectErrBudget(t *testing.T) {
	if err := Enable(Config{Seed: 3, ErrRate: 1, MaxErrs: 2}); err != nil {
		t.Fatalf("Enable: %v", err)
	}
	defer Disable()
	fired := 0
	for n := 0; n < 10; n++ {
		if err := InjectErr(CheckpointFrame); err != nil {
			var ie InjectedError
			if !errorsAs(err, &ie) {
				t.Fatalf("InjectErr returned %v, want fault.InjectedError", err)
			}
			if ie.Site != CheckpointFrame {
				t.Fatalf("injected at %v, want checkpoint-frame", ie.Site)
			}
			fired++
		}
	}
	if fired != 2 || ErrsFired() != 2 {
		t.Fatalf("fired %d errors (ErrsFired %d), want MaxErrs=2", fired, ErrsFired())
	}
	// The same schedule through Inject must downgrade every ActErr draw.
	if err := Enable(Config{Seed: 3, ErrRate: 1, MaxErrs: -1}); err != nil {
		t.Fatalf("Enable: %v", err)
	}
	for n := 0; n < 10; n++ {
		Inject(CheckpointFrame)
	}
	for _, e := range Events() {
		if e.Action == ActErr {
			t.Fatalf("Inject surfaced ActErr: %v", e)
		}
	}
}

// errorsAs avoids importing errors just for the assertion above.
func errorsAs(err error, target *InjectedError) bool {
	ie, ok := err.(InjectedError)
	if ok {
		*target = ie
	}
	return ok
}

// TestFirstHitTargets: FirstHit + unit rate + budget 1 injects at exactly
// one chosen hit — the enumerate-every-injection-point harness shape the
// checkpoint suites rely on.
func TestFirstHitTargets(t *testing.T) {
	for _, target := range []uint64{0, 1, 5, 9} {
		if err := Enable(Config{Seed: 8, ErrRate: 1, MaxErrs: 1, FirstHit: target}); err != nil {
			t.Fatalf("Enable: %v", err)
		}
		var hits []uint64
		for n := 0; n < 12; n++ {
			if err := InjectErr(CheckpointCommit); err != nil {
				hits = append(hits, uint64(n))
			}
		}
		Disable()
		if len(hits) != 1 || hits[0] != target {
			t.Fatalf("FirstHit=%d fired at hits %v, want exactly [%d]", target, hits, target)
		}
	}
}

func TestSiteMaskScopes(t *testing.T) {
	if err := Enable(Config{Seed: 11, DelayRate: 1, SiteMask: MaskOf(Type2SubRound)}); err != nil {
		t.Fatalf("Enable: %v", err)
	}
	defer Disable()
	Inject(SchedClaim)
	Inject(Type2SubRound)
	ev := Events()
	if len(ev) != 1 || ev[0].Site != Type2SubRound {
		t.Fatalf("Events = %v, want exactly one type2-subround delay", ev)
	}
	if Hits(SchedClaim) != 0 {
		t.Fatal("masked-out site still counted a hit")
	}
}
