package parallel

import (
	"errors"
	"sync/atomic"
)

// Cooperative cancellation token.
//
// A Canceler is a level-triggered, one-way token: once Cancel is called,
// Canceled reports true forever. The loop primitives never observe it —
// they are plain fork-join and always run every iteration. Callers check
// the token at their own commit points, where stopping leaves a state
// worth keeping: delaunay.Live.Step checks it once per round, before the
// round arms, and Epoch.Await checks it while it waits. A loop body that
// wants to stop early polls Canceled itself.
//
// The token is a single atomic word. Checking it is a nil-safe atomic
// load, Cancel is an atomic store; both are safe from any goroutine,
// including loop bodies and signal handlers. A nil *Canceler is a valid
// "never canceled" token.

// ErrCanceled is returned by the entry points that take a token
// (Epoch.Await here, delaunay.Live's Step and Run) when they stopped
// because the token was canceled.
var ErrCanceled = errors.New("parallel: loop canceled")

// Canceler is a cooperative cancellation token. The zero value is ready
// to use. A Canceler may be shared by any number of observers but not
// reset: cancellation is one-way.
type Canceler struct {
	flag atomic.Uint32
}

// Cancel marks the token canceled. Idempotent, safe from any goroutine,
// and safe on a nil receiver (no-op).
func (c *Canceler) Cancel() {
	if c != nil {
		c.flag.Store(1)
	}
}

// Canceled reports whether Cancel has been called. Safe on a nil
// receiver, where it reports false forever.
//
//ridt:noalloc
func (c *Canceler) Canceled() bool {
	return c != nil && c.flag.Load() != 0
}
