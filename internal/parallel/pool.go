package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

// This file implements the persistent work-stealing scheduler that the loop
// primitives (For, ForGrain, Blocks, Do, Reduce, ScanExclusive, ...) run on.
//
// Design, following the GBBS/Homemade-scheduler lineage (Dhulipala, Blelloch,
// Shun, SPAA'18) with lazy range splitting instead of a shared chunk counter:
//
//   - A fixed set of worker goroutines is started lazily on first use and
//     kept for the life of the process. The pool grows up to GOMAXPROCS
//     workers (re-checked on every submit, so raising GOMAXPROCS later adds
//     workers); it never shrinks. No goroutines are spawned per loop, so the
//     goroutine count during any loop is O(GOMAXPROCS), not O(n/grain).
//
//   - Each parallel loop is a loopTask: a body over nchunks chunk indices
//     held in per-participant claim ranges (lanes), one lane per worker
//     plus the caller. Every chunk starts in the caller's lane and spreads
//     lazily: each range is a single packed 64-bit word (head, tail)
//     mutated only by CAS, the lane's owner takes small batches off the
//     front with one CAS each and runs them with no further
//     synchronization, and an idle participant steals the back half of a
//     non-empty lane with one CAS and installs it as its own range. P
//     participants therefore spread a loop in O(log P) steal rounds, a
//     uniform loop costs O(chunks/maxClaim) lane-local atomics in place of
//     one shared-counter CAS per chunk, and a skewed or nested loop
//     rebalances because any idle participant can keep halving the largest
//     remnant. Completion is tracked by a single shared counter
//     decremented once per claimed batch, not once per chunk.
//
//   - The caller always participates: it publishes the task, consumes lane
//     0, steals when its lane runs dry, and blocks only when no chunk is
//     claimable anywhere. Nested parallelism is therefore deadlock-free by
//     construction — every claimed batch is being actively run by exactly
//     one goroutine, an inner loop issued from a worker is drained by that
//     worker itself even if every other worker is busy, and idle workers
//     join in when they can.
//
//   - Panics in loop bodies are recovered in whichever goroutine ran the
//     chunk, the first panic value is recorded, every not-yet-claimed range
//     is swept empty so the loop drains quickly, and the panic is re-raised
//     (original value) on the caller's goroutine once the loop has drained.
//     A panicking loop does not kill pool workers; the pool stays usable.

// chunksPerWorker is the target number of chunks per worker for a large
// loop: more chunks give the stealing scheduler finer rebalancing. Raised
// from 8 when the shared claim counter was replaced by per-lane ranges —
// extra chunks now cost lane-local CASes (logarithmically many per lane,
// thanks to half-range claiming), not shared-counter traffic.
const chunksPerWorker = 16

// maxRangeChunks bounds the chunk indices a packed range word can hold.
// Loops beyond it (only reachable through BlocksN with a caller-pinned
// block count in the billions) are run as sequential segments of this size,
// each segment internally parallel.
const maxRangeChunks = 1<<31 - 1

// rangeSlot is one participant lane's claim range over chunk indices,
// packed (head<<32 | tail) so owner claims and thief splits are single-word
// CASes. The padding keeps each lane's word on its own cache line; lane
// claims then stay core-local until a steal actually happens.
type rangeSlot struct {
	bounds atomic.Uint64 // head in the high 32 bits, tail in the low 32
	_      [56]byte
}

func packRange(h, t int32) uint64 {
	return uint64(uint32(h))<<32 | uint64(uint32(t))
}

func unpackRange(v uint64) (h, t int32) {
	return int32(uint32(v >> 32)), int32(uint32(v))
}

// maxClaim caps how many chunks one takeFront claims. The cap is what
// keeps lazy distribution fair: chunks all start in the submitter's lane,
// so if the submitter could claim an uncapped half, late-arriving thieves
// would find only a quarter of the loop stealable and a descheduled
// claimer would strand a huge batch (claimed batches cannot be stolen).
// Capping bounds the stranded work per participant at maxClaim chunks and
// keeps nearly everything unclaimed — hence stealable — until it is about
// to run, at k/maxClaim lane-local atomics per k-chunk lane, still far
// below the shared counter's one contended CAS per chunk.
const maxClaim = 4

// takeFront claims the front half (rounded up, so at least one chunk,
// capped at maxClaim) of the lane's remaining range. Owners call this
// repeatedly; the unclaimed back stays exposed to thieves throughout.
//
//ridt:noalloc
func (s *rangeSlot) takeFront() (lo, hi int, ok bool) {
	for {
		b := s.bounds.Load()
		h, t := unpackRange(b)
		if h >= t {
			return 0, 0, false
		}
		d := t - h
		k := d/2 + d%2 // ceil(d/2) without overflowing int32 at d = 2^31-1
		if k > maxClaim {
			k = maxClaim
		}
		if s.bounds.CompareAndSwap(b, packRange(h+k, t)) {
			return int(h), int(h + k), true
		}
	}
}

// stealBack splits off the back half (rounded up, so a one-chunk remnant is
// stolen whole rather than stranded behind a stuck owner) of the range.
//
//ridt:noalloc
func (s *rangeSlot) stealBack() (lo, hi int, ok bool) {
	for {
		b := s.bounds.Load()
		h, t := unpackRange(b)
		if h >= t {
			return 0, 0, false
		}
		m := h + (t-h)/2
		if s.bounds.CompareAndSwap(b, packRange(h, m)) {
			return int(m), int(t), true
		}
	}
}

// install publishes [lo, hi) as the lane's range if the lane is currently
// empty, re-exposing a stolen batch to further stealing (lazy splitting).
// It reports false — and writes nothing — when the lane holds live chunks,
// which can happen when more participants than lanes share the task.
//
//ridt:noalloc
func (s *rangeSlot) install(lo, hi int) bool {
	for {
		b := s.bounds.Load()
		if h, t := unpackRange(b); h < t {
			return false
		}
		if s.bounds.CompareAndSwap(b, packRange(int32(lo), int32(hi))) {
			return true
		}
	}
}

// drainAll empties the lane and returns how many chunks it removed. Used by
// the panic sweep to account for everything not yet claimed.
//
//ridt:noalloc
func (s *rangeSlot) drainAll() int64 {
	for {
		b := s.bounds.Load()
		h, t := unpackRange(b)
		if h >= t {
			return 0
		}
		if s.bounds.CompareAndSwap(b, packRange(t, t)) {
			return int64(t - h)
		}
	}
}

// loopTask is one parallel loop in flight on the pool.
type loopTask struct {
	body     func(chunk int)
	slots    []rangeSlot
	nextLane atomic.Int64 // lane assignment for arriving helpers
	pending  atomic.Int64 // chunks distributed but not yet run or swept
	done     chan struct{}
	panicked atomic.Bool
	panicVal any
}

func newLoopTask(nchunks int, body func(chunk int)) *loopTask {
	t := &loopTask{
		body:  body,
		slots: make([]rangeSlot, MaxProcs()),
		done:  make(chan struct{}),
	}
	t.pending.Store(int64(nchunks))
	// All chunks start in the submitter's lane: work distributes by
	// stealing, on demand, rather than by eager pre-partitioning. Thieves
	// halve what remains, so P participants spread a loop in O(log P)
	// steal rounds — while a submitter that never gets company (workers
	// busy or the host oversubscribed) consumes the whole range with
	// lane-local claims and no handoff to a goroutine that may not be
	// scheduled for a while.
	t.slots[0].bounds.Store(packRange(0, int32(nchunks)))
	return t
}

// finish accounts n consumed (run or swept) chunks and closes done when
// the last one lands. Exactly one accounting happens per chunk — by whoever
// removed it from a lane, or by the panic sweep — so the close fires once.
func (t *loopTask) finish(n int64) {
	if t.pending.Add(-n) == 0 {
		close(t.done)
	}
}

// runChunk executes one claimed chunk, recovering a panic into the task.
func (t *loopTask) runChunk(c int) {
	defer func() {
		if r := recover(); r != nil {
			t.recordPanic(r)
		}
	}()
	t.body(c)
}

// runRange executes a claimed batch and accounts it in one decrement. The
// accounting is deferred so the batch is counted even if a body terminates
// the goroutine with runtime.Goexit (t.FailNow inside a loop body, say) —
// the loop still completes for its caller, it just loses this worker,
// matching the per-chunk deferred accounting of the old scheduler. After a
// panic anywhere in the loop the remaining chunks of the batch are skipped
// (but still accounted): sequential semantics never reach iterations after
// the first panicking one.
//
//ridt:noalloc
func (t *loopTask) runRange(lo, hi int) {
	defer t.finish(int64(hi - lo))
	for c := lo; c < hi; c++ {
		if t.panicked.Load() {
			return
		}
		t.runChunk(c)
	}
}

// recordPanic stores the first panic value and sweeps every lane empty so
// the loop drains quickly. Later panics (from chunks already in flight) are
// dropped; the first one wins, mirroring sequential semantics. The sweep
// cannot close done: the batch holding the panicking chunk is accounted
// only after runRange returns, so pending stays positive here.
func (t *loopTask) recordPanic(r any) {
	if !t.panicked.CompareAndSwap(false, true) {
		return
	}
	t.panicVal = r
	var removed int64
	for i := range t.slots {
		removed += t.slots[i].drainAll()
	}
	if removed > 0 {
		t.finish(removed)
	}
}

// steal scans the other lanes in ring order starting after the thief's own
// lane — thieves spread across victims instead of convoying on lane 0 —
// and splits the back half off the first non-empty range found.
//
//ridt:noalloc
func (t *loopTask) steal(lane int) (lo, hi int, ok bool) {
	n := len(t.slots)
	for i := 1; i < n; i++ {
		if lo, hi, ok = t.slots[(lane+i)%n].stealBack(); ok {
			return lo, hi, true
		}
	}
	return 0, 0, false
}

// participate consumes the given lane, stealing when it runs dry, until no
// chunk is claimable anywhere. Ranges only ever shrink except through
// install, and an installed range is owned by a live participant, so a full
// scan that finds every lane empty proves this participant cannot help
// further (work may still be in flight in other goroutines' claimed
// batches; completion is tracked by pending, not by this scan).
//
//ridt:noalloc
func (t *loopTask) participate(lane int) {
	for {
		if fault.Enabled {
			fault.Inject(fault.SchedClaim)
			if fault.SkipClaim(fault.SchedClaim) {
				// Forced-steal diversion: exercise the thief path even when
				// our own lane has work. Falls through to the normal claim
				// when nothing is stealable, so a diverted participant can
				// never return while its own lane holds chunks.
				if lo, hi, ok := t.steal(lane); ok {
					if t.slots[lane].install(lo, hi) {
						continue
					}
					t.runRange(lo, hi)
					continue
				}
			}
		}
		lo, hi, ok := t.slots[lane].takeFront()
		if !ok {
			if fault.Enabled {
				fault.Inject(fault.SchedSteal)
			}
			if lo, hi, ok = t.steal(lane); !ok {
				return
			}
			// Re-expose the stolen batch on our own lane so other thieves
			// can keep splitting it; if the lane is shared and busy, just
			// run the batch directly.
			if t.slots[lane].install(lo, hi) {
				continue
			}
		}
		t.runRange(lo, hi)
	}
}

// pool is the process-wide scheduler state.
type pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	loops   []*loopTask // active loops that may still have claimable chunks
	workers int         // worker goroutines started so far
}

var sched = newPool()

func newPool() *pool {
	p := &pool{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// submit publishes t so idle workers can help, growing the pool up to
// MaxProcs() persistent workers. It wakes a single worker; helpers then
// recruit each other (see worker), so a loop that parallelizes ramps its
// helper count exponentially while a loop the caller finishes alone costs
// one wakeup instead of a GOMAXPROCS-wide broadcast storm.
func (p *pool) submit(t *loopTask) {
	want := MaxProcs()
	p.mu.Lock()
	p.loops = append(p.loops, t)
	for p.workers < want {
		p.workers++
		go p.worker()
	}
	p.mu.Unlock()
	p.cond.Signal()
}

// remove unpublishes t. Safe to call multiple times and from any goroutine.
func (p *pool) remove(t *loopTask) {
	p.mu.Lock()
	for i, l := range p.loops {
		if l == t {
			last := len(p.loops) - 1
			p.loops[i] = p.loops[last]
			p.loops[last] = nil
			p.loops = p.loops[:last]
			break
		}
	}
	p.mu.Unlock()
}

// worker is the persistent loop each pool goroutine runs: sleep until a
// loop is published, join the oldest active loop on the next helper lane,
// and participate (consume + steal) until nothing is claimable. Workers
// never exit; an idle pool costs GOMAXPROCS parked goroutines and nothing
// else.
func (p *pool) worker() {
	for {
		p.mu.Lock()
		for len(p.loops) == 0 {
			p.cond.Wait()
		}
		t := p.loops[0]
		p.mu.Unlock()
		// Recruit the next helper before joining: a worker only reaches
		// here when a published loop exists, so as long as work remains
		// claimable the wake chain keeps growing — one wakeup per joining
		// worker — and it dies out as soon as loops drain.
		p.cond.Signal()
		lane := int(t.nextLane.Add(1)) % len(t.slots)
		t.participate(lane)
		// Nothing claimable (in-flight batches are owned by live
		// participants): unpublish so we don't pick it again.
		p.remove(t)
	}
}

// runLoop executes body(0..nchunks-1) on the pool with the caller
// participating on lane 0, propagating the first panic to the caller.
// nchunks must already be bounded (callers derive it from chunksFor or
// len(fns)).
func runLoop(nchunks int, body func(chunk int)) {
	if nchunks <= 0 {
		return
	}
	if nchunks == 1 || MaxProcs() == 1 {
		for c := 0; c < nchunks; c++ {
			body(c)
		}
		return
	}
	for nchunks > maxRangeChunks {
		runLoop(maxRangeChunks, body)
		off := maxRangeChunks
		rest := body
		body = func(c int) { rest(off + c) }
		nchunks -= maxRangeChunks
	}
	t := newLoopTask(nchunks, body)
	runTask(t)
}

// runTask publishes t, participates until nothing is claimable, and waits
// for the last in-flight batch, re-raising the loop's first panic on the
// caller.
func runTask(t *loopTask) {
	sched.submit(t)
	t.participate(0)
	sched.remove(t)
	// Briefly yield-and-rejoin before sleeping on done: the tail of the
	// loop is usually a few chunks claimed by a descheduled worker (common
	// when GOMAXPROCS exceeds the hardware threads), and yielding lets it
	// finish — or re-expose stealable work — without paying a futex
	// sleep/wake round trip on the critical path of every loop.
	for i := 0; i < 32 && t.pending.Load() != 0; i++ {
		runtime.Gosched()
		t.participate(0)
	}
	<-t.done
	if t.panicked.Load() {
		panic(t.panicVal)
	}
}
