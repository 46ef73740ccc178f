package parallel

import "sync/atomic"

// A PriorityCell is a CRCW "priority-write" memory cell: concurrent writers
// each present a priority (an iteration index in the paper's algorithms) and
// the smallest priority wins. It emulates the priority-write CRCW PRAM used
// by Theorem 3.2 and the SCC combine step with a compare-and-swap loop; the
// expected number of retries per write is O(1) under random arrival order.
// The winner is a pure minimum, independent of write order, which is what
// keeps reservation results deterministic under the stealing scheduler's
// arbitrary chunk interleavings.
//
// The zero value is empty (no write yet). Priorities must be non-negative.
type PriorityCell struct {
	v atomic.Int64 // stored as priority+1 so that 0 means "empty"
}

// Write offers pri to the cell and reports whether it became (or already
// was) the winning value. Lower priorities win.
func (c *PriorityCell) Write(pri int64) bool {
	n := pri + 1
	for {
		cur := c.v.Load()
		if cur != 0 && cur <= n {
			return cur == n
		}
		if c.v.CompareAndSwap(cur, n) {
			return true
		}
	}
}

// Load returns the winning priority and whether any write has occurred.
func (c *PriorityCell) Load() (pri int64, ok bool) {
	cur := c.v.Load()
	if cur == 0 {
		return 0, false
	}
	return cur - 1, true
}

// Reset empties the cell.
func (c *PriorityCell) Reset() { c.v.Store(0) }
