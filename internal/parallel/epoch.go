package parallel

import (
	"sync"
	"sync/atomic"
	"time"
)

// Epoch is a single-writer publication cell: the epoch tick hook of the
// serve-while-building story. A builder publishes an immutable value at
// each committed round boundary; any number of reader goroutines observe
// the latest published value wait-free (Current is one atomic load) or
// block for the next one (Await). The values themselves must be
// immutable after publication — the cell hands out shared pointers, it
// does not copy.
//
// Epoch numbers start at 1 and increase by exactly 1 per Publish, so a
// reader that saw epoch e and later sees e' observed exactly e'-e
// publications in between: the gap is an honest staleness measure.
//
// Publish is intended for one publisher goroutine at a time (the round
// engine's commit point); it is nevertheless safe under concurrent
// publishers — the mutex serializes them — so misuse degrades to an
// arbitrary publication order rather than a data race.
type Epoch[T any] struct {
	cur atomic.Pointer[epochEntry[T]]

	mu   sync.Mutex
	tick chan struct{} // closed and replaced on every Publish
}

type epochEntry[T any] struct {
	v     *T
	epoch uint64
}

// awaitPoll bounds how long a blocked Await goes without re-checking its
// cancellation token. Wakeups on publication are immediate (the tick
// channel closes); the poll only bounds cancellation latency.
const awaitPoll = 5 * time.Millisecond

// Publish installs v as the current value and returns its epoch number,
// one past the current one (1 for the first publication): PublishAt's
// clamp of epoch 0. v must not be mutated after the call.
func (e *Epoch[T]) Publish(v *T) uint64 { return e.PublishAt(v, 0) }

// PublishAt installs v at a caller-chosen epoch number, provided it moves
// the cell forward; an epoch at or below the current one is clamped to
// current+1, preserving the monotone +1-or-more contract (readers may
// then observe a gap, never a repeat). It exists for restore paths: a
// process resuming from a crash-safe checkpoint republishes the restored
// value at the epoch numbering the pre-crash cell had reached (the
// committed round maps to it), so Await(after) tokens that outlive the
// restart — reader loops re-attached to a rebuilt cell — keep their
// meaning instead of seeing the history restart at 1.
func (e *Epoch[T]) PublishAt(v *T, epoch uint64) uint64 {
	e.mu.Lock()
	if old := e.cur.Load(); old != nil && epoch <= old.epoch {
		epoch = old.epoch + 1
	}
	if epoch == 0 {
		epoch = 1
	}
	e.cur.Store(&epochEntry[T]{v: v, epoch: epoch})
	if e.tick != nil {
		close(e.tick)
	}
	e.tick = make(chan struct{})
	e.mu.Unlock()
	return epoch
}

// Current returns the most recently published value and its epoch, or
// (nil, 0) if nothing has been published yet. Wait-free: one atomic load,
// no allocation.
//
//ridt:noalloc
func (e *Epoch[T]) Current() (*T, uint64) {
	ent := e.cur.Load()
	if ent == nil {
		return nil, 0
	}
	return ent.v, ent.epoch
}

// Await blocks until a value with epoch > after is published, and returns
// it. A nil Canceler never cancels; a canceled token makes Await return
// ErrCanceled within awaitPoll. Await(0, nil) returns as soon as anything
// has ever been published.
func (e *Epoch[T]) Await(after uint64, c *Canceler) (*T, uint64, error) {
	for {
		if ent := e.cur.Load(); ent != nil && ent.epoch > after {
			return ent.v, ent.epoch, nil
		}
		if c.Canceled() {
			return nil, 0, ErrCanceled
		}
		e.mu.Lock()
		if e.tick == nil {
			e.tick = make(chan struct{})
		}
		tick := e.tick
		e.mu.Unlock()
		// Re-check after capturing the tick channel: a Publish between the
		// load above and the capture would otherwise be missed until the
		// next publication (or poll).
		if ent := e.cur.Load(); ent != nil && ent.epoch > after {
			return ent.v, ent.epoch, nil
		}
		select {
		case <-tick:
		case <-time.After(awaitPoll):
		}
	}
}
