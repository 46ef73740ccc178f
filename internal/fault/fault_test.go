package fault

import "testing"

// These tests compile in both builds: the decision functions are shared
// source, so the schedule's determinism and distribution are checked even
// when injection itself is compiled out.

func TestDecideDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for s := Site(0); s < NumSites; s++ {
			for n := uint64(0); n < 200; n++ {
				a1 := decide(seed, s, n, 0.05, 0.05, 0.2)
				a2 := decide(seed, s, n, 0.05, 0.05, 0.2)
				if a1 != a2 {
					t.Fatalf("decide(%d, %v, %d) unstable: %v vs %v", seed, s, n, a1, a2)
				}
			}
		}
	}
}

func TestDecideRates(t *testing.T) {
	const trials = 20000
	var panics, errs, delays int
	for n := uint64(0); n < trials; n++ {
		switch decide(7, Type3Round, n, 0.1, 0.1, 0.3) {
		case ActPanic:
			panics++
		case ActErr:
			errs++
		case ActDelay:
			delays++
		}
	}
	if f := float64(panics) / trials; f < 0.07 || f > 0.13 {
		t.Fatalf("panic rate %.3f, want ~0.1", f)
	}
	if f := float64(errs) / trials; f < 0.07 || f > 0.13 {
		t.Fatalf("err rate %.3f, want ~0.1", f)
	}
	if f := float64(delays) / trials; f < 0.25 || f > 0.35 {
		t.Fatalf("delay rate %.3f, want ~0.3", f)
	}
	for n := uint64(0); n < 1000; n++ {
		if decide(7, SchedClaim, n, 0, 0, 0) != ActNone {
			t.Fatalf("zero rates still fired at hit %d", n)
		}
		if decideSkip(7, SchedClaim, n, 0) {
			t.Fatalf("zero skip rate still skipped at hit %d", n)
		}
		if !decideSkip(7, SchedClaim, n, 1) {
			t.Fatalf("unit skip rate declined at hit %d", n)
		}
	}
}

// TestDecideGolden pins exact schedule outputs for fixed (seed, site,
// hit) tuples — including the ActErr band — so a replay seed reported by
// a CI failure reproduces the identical fault schedule on any platform
// and any future commit. The decision functions are pure integer/float
// arithmetic on SplitMix64 draws with no platform-dependent operations;
// if this test ever fails, the schedule function changed and every seed
// baked into the stress suites (and recorded in old failure reports) has
// silently stopped replaying — treat that as a breaking change, not a
// test to update.
func TestDecideGolden(t *testing.T) {
	// All rows drawn at PanicRate 0.1, ErrRate 0.15, DelayRate 0.25.
	for _, g := range []struct {
		seed uint64
		s    Site
		n    uint64
		want Action
	}{
		{1, SchedClaim, 0, ActErr},
		{1, SchedClaim, 1, ActDelay},
		{1, SchedClaim, 2, ActNone},
		{1, SchedClaim, 3, ActNone},
		{1, SchedClaim, 17, ActErr},
		{42, DelaunayPhase, 0, ActNone},
		{42, DelaunayPhase, 5, ActNone},
		{42, DelaunayPhase, 9, ActErr},
		{42, CheckpointFrame, 0, ActDelay},
		{42, CheckpointFrame, 1, ActNone},
		{42, CheckpointFrame, 5, ActErr},
		{42, CheckpointFrame, 6, ActErr},
		{42, CheckpointFrame, 7, ActNone},
		{42, CheckpointFrame, 11, ActDelay},
		{977, CheckpointCommit, 0, ActNone},
		{977, CheckpointCommit, 1, ActPanic},
		{977, CheckpointCommit, 3, ActNone},
		{977, CheckpointCommit, 4, ActErr},
		{977, CheckpointCommit, 23, ActPanic},
		{977, EpochPublish, 2, ActDelay},
		{977, EpochPublish, 6, ActNone},
	} {
		if got := decide(g.seed, g.s, g.n, 0.1, 0.15, 0.25); got != g.want {
			t.Errorf("decide(%d, %v, %d) = %v, want %v", g.seed, g.s, g.n, got, g.want)
		}
	}
	// With ErrRate 0 the [panic | delay] bands must sit exactly where the
	// pre-ActErr harness put them: the err band has zero width, so every
	// historical seed replays unchanged.
	for _, g := range []struct {
		seed uint64
		s    Site
		n    uint64
	}{{7, SchedSteal, 0}, {7, SchedSteal, 1}, {31, DelaunayPhase, 4}, {31, Type2SubRound, 9}} {
		with := decide(g.seed, g.s, g.n, 0.1, 0, 0.3)
		legacy := decide(g.seed, g.s, g.n, 0.1, 1e-18, 0.3) // sub-resolution band
		if with != legacy {
			t.Errorf("zero-width err band moved decide(%d, %v, %d): %v vs %v",
				g.seed, g.s, g.n, with, legacy)
		}
	}
	// Claim-skip schedule pins at SkipRate 0.3 (an independent draw — a
	// skip golden moving without the action goldens moving, or vice versa,
	// identifies which schedule broke).
	for _, g := range []struct {
		seed uint64
		s    Site
		n    uint64
		want bool
	}{
		{1, SchedClaim, 0, false},
		{1, SchedClaim, 1, true},
		{1, SchedClaim, 5, true},
		{7, SchedClaim, 0, false},
		{7, SchedSteal, 3, false},
	} {
		if got := decideSkip(g.seed, g.s, g.n, 0.3); got != g.want {
			t.Errorf("decideSkip(%d, %v, %d) = %v, want %v", g.seed, g.s, g.n, got, g.want)
		}
	}
}

func TestDecideSeedsDiffer(t *testing.T) {
	// Different seeds must produce different schedules (else "seeded" is a
	// lie); compare the first divergence over a modest horizon.
	same := 0
	for n := uint64(0); n < 1000; n++ {
		if decide(1, DelaunayPhase, n, 0.2, 0.1, 0.3) == decide(2, DelaunayPhase, n, 0.2, 0.1, 0.3) {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("seeds 1 and 2 yield identical schedules")
	}
}

func TestMaskOf(t *testing.T) {
	c := Config{SiteMask: MaskOf(SchedClaim, Type3Round)}
	if !c.enabledSite(SchedClaim) || !c.enabledSite(Type3Round) {
		t.Fatal("masked-in site reported disabled")
	}
	if c.enabledSite(DelaunayPhase) {
		t.Fatal("masked-out site reported enabled")
	}
	all := Config{}
	for s := Site(0); s < NumSites; s++ {
		if !all.enabledSite(s) {
			t.Fatalf("zero mask must enable all sites; %v disabled", s)
		}
	}
}

func TestSiteStrings(t *testing.T) {
	seen := map[string]bool{}
	for s := Site(0); s < NumSites; s++ {
		if s == 2 {
			// The retired table-migration slot: reserved, unnamed.
			if s.String() != "fault-site-?" {
				t.Fatalf("retired site 2 is named %q", s.String())
			}
			continue
		}
		n := s.String()
		if n == "" || n == "fault-site-?" || seen[n] {
			t.Fatalf("site %d has bad or duplicate name %q", s, n)
		}
		seen[n] = true
	}
	if (Injected{Site: DelaunayPhase, Hit: 3}).Error() == "" {
		t.Fatal("Injected must describe itself")
	}
}
