package cpu

import (
	"math"

	"perfstacks/internal/invariant"
)

// This file holds the simdebug runtime checks for the issue stage's
// readiness memos. Every entry point is reached only through an
// `if invariant.Enabled` guard, so a normal build compiles them away.

// checkReady asserts that the issue loop's memoized readiness answer for a
// waiting slot equals a full walk of its source operands this cycle.
func (c *Core) checkReady(slot int, ready bool) {
	walk := true
	for _, src := range &c.rob.u[slot].Src {
		if t, ok := c.sb.readyAt(src); !ok || t > c.now {
			walk = false
			break
		}
	}
	invariant.Assertf(walk == ready,
		"cpu: cycle %d: slot %d (seq %#x) memoized ready=%v, operand walk says %v",
		c.now, slot, c.rob.u[slot].Seq, ready, walk)
}

// checkWake asserts that a slot woken by its producer's issue was parked
// and has not issued. A squashed consumer left on a live producer's waiter
// list, or a list that loops, fails here instead of corrupting the lists.
func (c *Core) checkWake(w int32) {
	invariant.Assertf(c.rob.srcReady[w] == math.MaxInt64 && c.rob.flags[w]&robIssued == 0,
		"cpu: cycle %d: woke slot %d (seq %#x) that is not parked", c.now, w, c.rob.u[w].Seq)
}
