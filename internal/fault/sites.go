// Package fault is the repository's deterministic fault-injection harness.
//
// The robustness suites need to ask "does the scheduler, the round engine,
// or the checkpoint writer stay consistent when a participant is delayed,
// diverted, or dies at this exact point?" — and they need the answer to be
// replayable. This package provides named injection points compiled into
// the scheduler claim/steal path, the engine round/phase boundaries, the
// publication step and the checkpoint writer, driven by a seeded,
// deterministic schedule.
//
// The package has two builds:
//
//   - Default (no build tag): Enabled is the constant false and every
//     entry point is an empty function. Injection sites are written as
//     `if fault.Enabled { fault.Inject(...) }`, so the compiler removes
//     them entirely — the hot paths of the default build are bit-for-bit
//     the uninstrumented ones, which is what lets the //ridt:noalloc pins
//     and the benchgate allocation gates keep their meaning.
//
//   - `-tags ridtfault`: Enabled is true and Inject/SkipClaim consult the
//     active plan (see Enable). Decisions are a pure function of
//     (seed, site, per-site hit counter), so a failing stress run is
//     replayed by re-running with the same seed; the fired-event log
//     (Events) records what actually happened for the failure report.
//
// See DESIGN.md in this directory for the injection-point catalog, the
// seed/replay protocol, and the build-tag story.
package fault

// Site names one injection point. Sites are a closed catalog (see the
// constants below) so plans can be expressed as bitmasks and decisions
// stay a pure function of (seed, site, hit).
type Site uint8

// The injection-point catalog. Each site sits at a quiescent boundary of
// its subsystem: a fault injected there models a participant being
// descheduled, diverted, or killed *between* protocol steps, never inside
// one — so every post-fault state is one the cooperative protocols are
// specified to handle (see DESIGN.md for why each site is placed where it
// is, and which actions it supports).
const (
	// SchedClaim fires each time a pool participant is about to claim a
	// batch from its own lane (internal/parallel.participate). Supports
	// Delay and Skip (a skipped claim diverts the participant to the
	// steal path: the forced-steal schedule). Panics are not injected
	// here: a panic outside a loop body would escape the chunk recovery
	// and kill a pool worker, which the scheduler (by design) does not
	// survive — loop-body death is injected at the engine sites instead.
	SchedClaim Site = iota
	// SchedSteal fires before a steal sweep over the other lanes.
	// Supports Delay.
	SchedSteal
	// Site 2 is retired and reserved: it was the hash table's
	// cooperative-migration loop, which no longer exists (the table grows
	// only in Reserve, between phases). Every later site keeps its number,
	// because decide draws from it and recorded seeds must replay.
	_
	// DelaunayPhase fires at the top of each Delaunay engine round and
	// after its fire loop. Supports Delay and Panic; a panic here
	// exercises the engine's round rollback.
	DelaunayPhase
	// Type2SubRound fires at the top of each RunType2 sub-round. Supports
	// Delay and Panic.
	Type2SubRound
	// Type3Round fires at the top of each RunType3 round. Supports Delay
	// and Panic.
	Type3Round
	// EpochPublish fires between a committed round and the publication of
	// its snapshot view (delaunay.Live.Step). Supports Delay and Panic: a
	// panic models the publisher dying after the round committed but
	// before readers could see it — the round's effects are durable, and
	// the next successful publication covers the orphaned round, so
	// readers observe a gap in epochs but never an inconsistent view.
	EpochPublish
	// CheckpointFrame fires before each frame write of a checkpoint save,
	// root or link (internal/checkpoint.Writer.SaveAuto, and the
	// scrubber's promotion). Supports Delay, Panic, and Err: a panic
	// models the process dying with a partial temp file on disk (the
	// atomic-rename commit has not happened, so the previous generation is
	// untouched); an injected error models a failed disk write the saver
	// must surface and abandon the attempt on.
	CheckpointFrame
	// CheckpointCommit fires at each step of a checkpoint's commit
	// sequence (fsync file, rename into place, fsync directory). Supports
	// Delay, Panic, and Err: a death or error at any
	// commit step leaves either the previous generation or a fully valid
	// new one — never a torn file under the committed name.
	CheckpointCommit
	// ScrubVerify fires before the scrubber verifies each on-disk
	// generation (internal/checkpoint.Writer.Scrub). Supports Delay,
	// Panic, and Err: an injected error models a transient read failure —
	// the scrubber must SKIP the file this pass (an unreadable file is
	// unverifiable, not provably corrupt, so quarantining it would destroy
	// healthy durability); a panic models the scrubber dying mid-pass,
	// after which the directory must still restore to a committed prefix.
	ScrubVerify

	// NumSites is the number of catalogued sites (not itself a site).
	NumSites
)

var siteNames = [NumSites]string{
	SchedClaim:       "sched-claim",
	SchedSteal:       "sched-steal",
	DelaunayPhase:    "delaunay-phase",
	Type2SubRound:    "type2-subround",
	Type3Round:       "type3-round",
	EpochPublish:     "epoch-publish",
	CheckpointFrame:  "checkpoint-frame",
	CheckpointCommit: "checkpoint-commit",
	ScrubVerify:      "scrub-verify",
}

func (s Site) String() string {
	if int(s) < len(siteNames) && siteNames[s] != "" {
		return siteNames[s]
	}
	return "fault-site-?"
}

// panicCapable reports whether a site may receive an injected panic; at
// the remaining sites a scheduled panic is downgraded to a delay (see the
// catalog above for why).
func panicCapable(s Site) bool {
	switch s {
	case DelaunayPhase, Type2SubRound, Type3Round, EpochPublish,
		CheckpointFrame, CheckpointCommit, ScrubVerify:
		return true
	}
	return false
}

// Action is what the schedule decided for one hit of a site.
type Action uint8

const (
	ActNone  Action = iota
	ActDelay        // runtime.Gosched: the participant loses its turn
	ActPanic        // panic(Injected{...}): the participant dies here
	ActSkip         // claim declined: the participant is diverted to stealing
	ActErr          // InjectErr returns InjectedError: a failed I/O the caller must handle
)

func (a Action) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActDelay:
		return "delay"
	case ActPanic:
		return "panic"
	case ActSkip:
		return "skip"
	case ActErr:
		return "err"
	}
	return "action-?"
}

// Event records one fired (non-none) injection for the replay report.
type Event struct {
	Site   Site
	Hit    uint64 // which hit of the site fired (0-based, per counter)
	Action Action
}

// Injected is the value of an injected panic. Harnesses recognize
// injected deaths by type-asserting the recovered value.
type Injected struct {
	Site Site
	Hit  uint64
}

func (p Injected) Error() string {
	return "fault: injected panic at " + p.Site.String()
}

// InjectedError is the typed error InjectErr returns on a scheduled
// ActErr: a deterministic stand-in for a failed I/O operation (a write
// that returned an error rather than killing the process). Callers
// recognize injected failures with errors.As, exactly as harnesses
// recognize Injected panics.
type InjectedError struct {
	Site Site
	Hit  uint64
}

func (e InjectedError) Error() string {
	return "fault: injected error at " + e.Site.String()
}

// Config parameterizes an injection plan. Rates are per-hit probabilities
// in [0, 1], evaluated deterministically from (Seed, site, hit).
type Config struct {
	Seed      uint64  // schedule seed; the whole plan is a pure function of it
	PanicRate float64 // probability a hit panics (panic-capable sites only)
	ErrRate   float64 // probability an InjectErr hit fails (error-returning sites)
	DelayRate float64 // probability a hit yields the scheduler
	SkipRate  float64 // probability a claim hit is declined (SkipClaim sites)
	// MaxPanics bounds the injected panics per Enable; once spent, further
	// scheduled panics downgrade to delays. 0 means 1 (the common
	// one-death-per-trial harness shape); negative means unlimited.
	MaxPanics int
	// MaxErrs bounds the injected errors per Enable, mirroring MaxPanics:
	// 0 means 1, negative means unlimited; past the budget a scheduled
	// error downgrades to a delay.
	MaxErrs int
	// FirstHit arms the Inject/InjectErr schedules only from that hit of
	// each site onward: hits below it draw nothing (the counters still
	// advance). With a unit rate and a budget of 1 this targets a fault at
	// exactly one chosen hit — the enumerate-every-injection-point harness
	// shape. The claim-skip schedule is independent and not gated.
	FirstHit uint64
	// SiteMask selects sites (bit i enables Site(i)); 0 enables all.
	SiteMask uint32
}

// enabledSite reports whether the config covers s.
func (c *Config) enabledSite(s Site) bool {
	return c.SiteMask == 0 || c.SiteMask&(1<<s) != 0
}

// MaskOf builds a SiteMask covering exactly the given sites.
func MaskOf(sites ...Site) uint32 {
	var m uint32
	for _, s := range sites {
		m |= 1 << s
	}
	return m
}

// splitmix64 is the SplitMix64 mixer; decisions are drawn from it so the
// schedule is a pure, platform-independent function of (seed, site, hit).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// unitFloat maps a draw to [0, 1).
func unitFloat(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}

// decide is the pure decision function: the action scheduled for hit n of
// site s under seed. Both builds compile it so the off build's tests can
// still assert schedule determinism. One uniform draw is carved into
// [panic | err | delay | none] bands, in that order, so a plan with
// ErrRate 0 draws the identical schedule the pre-ActErr harness did —
// every seed baked into the existing stress suites replays unchanged.
func decide(seed uint64, s Site, n uint64, panicRate, errRate, delayRate float64) Action {
	u := unitFloat(splitmix64(splitmix64(seed^(uint64(s)+1)*0xA24BAED4963EE407) + n))
	if u < panicRate {
		return ActPanic
	}
	if u < panicRate+errRate {
		return ActErr
	}
	if u < panicRate+errRate+delayRate {
		return ActDelay
	}
	return ActNone
}

// decideSkip is decide for the claim-skip schedule (an independent draw so
// skip and delay schedules do not alias).
func decideSkip(seed uint64, s Site, n uint64, skipRate float64) bool {
	u := unitFloat(splitmix64(splitmix64(seed^0x5851F42D4C957F2D^(uint64(s)+1)) + n))
	return u < skipRate
}
