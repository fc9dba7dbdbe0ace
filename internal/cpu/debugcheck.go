package cpu

import (
	"math"
	"math/bits"

	"perfstacks/internal/core"
	"perfstacks/internal/invariant"
	"perfstacks/internal/trace"
)

// This file holds the simdebug runtime checks for the issue stage's
// readiness memos and bitset walk. Every entry point is reached only
// through an `if invariant.Enabled` guard, so a normal build compiles them
// away.

// issueRef is the pre-walk state the reference issue walk needs: the RS
// entries and the dividers' busy times as the cycle's issue walk found
// them (after squash, commit and promote; before any uop issued).
type issueRef struct {
	rs    slotSet
	div   []int64
	ready slotSet // after the walk: the RS entries a full operand walk finds ready
}

func (c *Core) newIssueRef() {
	sets := newSlotSets(len(c.rob.u), 2)
	c.ref = issueRef{rs: sets[0], ready: sets[1], div: make([]int64, len(c.divBusyUntil))}
}

// snapshotIssue records the pre-walk state for checkIssue.
func (c *Core) snapshotIssue() {
	copy(c.ref.rs, c.rsBits)
	copy(c.ref.div, c.divBusyUntil)
}

// operandsReady is the full operand walk: whether every source of slot is
// available this cycle.
func (c *Core) operandsReady(slot int) bool {
	for _, src := range &c.rob.u[slot].Src {
		if t, ok := c.sb.readyAt(src); !ok || t > c.now {
			return false
		}
	}
	return true
}

// failf raises an invariant violation for the current cycle. The checks
// call it only once a condition has failed, so a passing check formats and
// boxes nothing.
func (c *Core) failf(format string, args ...any) {
	invariant.Assertf(false, "cpu: cycle %d: "+format, append([]any{c.now}, args...)...)
}

// checkIssue replays the cycle's issue stage as a walk over every RS entry
// in age order — readiness from a full operand walk, ports claimed on a
// copy of the pre-walk divider state — and asserts that the bitset walk
// issued the same entries and produced the same sample fields. It runs
// after the walk: an entry's operands and its blamed producer are older
// than it, so they read the same after the walk as when the walk passed
// the entry. It then checks every remaining entry's readiness state.
func (c *Core) checkIssue(s *core.CycleSample) {
	r := c.rob
	var (
		ports   portsInUse
		issued  int
		want    core.CycleSample
		foundNR bool
		vfpSeen bool
	)
	noteVFP := func(cls core.ProdClass, isLoad bool) {
		want.VFPInRS = true
		if !vfpSeen {
			vfpSeen = true
			want.OldestVFPClass, want.OldestVFPWaitsLoad = cls, isLoad
		}
	}
	clear(c.ref.ready)
	for k := 0; k < r.count; k++ {
		slot := r.slotAt(k)
		if !c.ref.rs.has(slot) {
			continue
		}
		out := !c.rsBits.has(slot) // issued this cycle
		op := r.op[slot]
		ready := c.operandsReady(slot)
		if ready {
			c.ref.ready.set(slot)
		}
		wantOut := false
		switch {
		case issued >= c.p.IssueWidth:
			// Past the stop point: waits on the issue width.
			if op.IsVFP() {
				noteVFP(core.ProdNone, false)
			}
		case !ready:
			cls, isLoad, depth := c.blame(slot)
			if !foundNR {
				foundNR = true
				want.FirstNonReadyClass, want.FirstNonReadyMissDepth = cls, depth
			}
			if op.IsVFP() {
				noteVFP(cls, isLoad)
			}
		case c.p.MemDisambiguation && op == trace.OpLoad && c.refMemConflict(slot):
			if !want.IssueBlockedPort {
				want.IssueBlockedMemOrder = true
			}
		case !c.portFree(&ports, op, c.ref.div):
			if !want.IssueBlockedMemOrder {
				want.IssueBlockedPort = true
			}
			if op.IsVFP() {
				noteVFP(core.ProdNone, false)
			}
		default:
			wantOut = true
			issued++
		}
		if out != wantOut {
			c.failf("slot %d (seq %#x) issued=%v, reference walk says %v", slot, r.u[slot].Seq, out, wantOut)
		}
	}
	if s.FirstNonReadyClass != want.FirstNonReadyClass || s.FirstNonReadyMissDepth != want.FirstNonReadyMissDepth ||
		s.VFPInRS != want.VFPInRS || s.OldestVFPClass != want.OldestVFPClass ||
		s.OldestVFPWaitsLoad != want.OldestVFPWaitsLoad ||
		s.IssueBlockedPort != want.IssueBlockedPort || s.IssueBlockedMemOrder != want.IssueBlockedMemOrder {
		c.failf("issue signals first-non-ready %v/%d, oldest VFP %v %v/%v, blocked port/mem %v/%v; reference walk says %v/%d, %v %v/%v, %v/%v",
			s.FirstNonReadyClass, s.FirstNonReadyMissDepth, s.VFPInRS, s.OldestVFPClass, s.OldestVFPWaitsLoad,
			s.IssueBlockedPort, s.IssueBlockedMemOrder,
			want.FirstNonReadyClass, want.FirstNonReadyMissDepth, want.VFPInRS, want.OldestVFPClass, want.OldestVFPWaitsLoad,
			want.IssueBlockedPort, want.IssueBlockedMemOrder)
	}
	c.checkStates()
}

// checkStates asserts that every RS entry is in exactly the readiness state
// its operands give (c.ref.ready, from checkIssue's walk), with set
// membership, memo and counters in agreement.
func (c *Core) checkStates() {
	r := c.rob
	n, wait, vfp, div := 0, 0, 0, 0
	for w, x := range c.rsBits {
		// The slots of this word in one marked wheel set, and in more than
		// one. The unmarked sets must be empty; one of them is checked per
		// cycle, in turn.
		var once, twice uint64
		for m := c.wheelMask; m != 0; m &= m - 1 {
			b := c.wheel[bits.TrailingZeros64(m)]
			twice |= once & b[w]
			once |= b[w]
		}
		// No set holds a slot outside the RS.
		if stray := (c.readyBits[w] | c.pendingBits[w] | c.vfpBits[w] | once) &^ x; stray != 0 {
			c.failf("slot %d is in a state set but not in the RS", w<<6+bits.TrailingZeros64(stray))
		}
		for ; x != 0; x &= x - 1 {
			b := bits.TrailingZeros64(x)
			slot := w<<6 + b
			n++
			t := r.srcReady[slot]
			ready, far := c.readyBits.has(slot), c.pendingBits.has(slot)
			inWheel := int(once>>uint(b)&1 + twice>>uint(b)&1)
			if !ready {
				wait++
			}
			if c.vfpBits.has(slot) {
				vfp++
			}
			if ready != c.ref.ready.has(slot) {
				c.failf("slot %d (seq %#x) memoized ready=%v, operand walk says %v", slot, r.u[slot].Seq, ready, !ready)
			}
			var ok bool
			switch {
			case ready:
				ok = !far && inWheel == 0 && t <= c.now
			case far:
				ok = inWheel == 0 && t > c.now && t >= c.pendingFloor
			case inWheel > 0:
				ok = inWheel == 1 && t > c.now && t-c.now < wheelSize && c.wheel[t&(wheelSize-1)].has(slot)
			default: // parked
				ok = t == math.MaxInt64
			}
			if !ok {
				c.failf("slot %d: ready=%v far=%v in %d wheel sets, srcReady %d, pendingFloor %d",
					slot, ready, far, inWheel, t, c.pendingFloor)
			}
			if c.vfpBits.has(slot) != r.op[slot].IsVFP() {
				c.failf("slot %d op %v disagrees with the VFP set", slot, r.op[slot])
			}
			if r.op[slot] == trace.OpDiv {
				div++
			}
		}
	}
	if n != c.rsN || wait != c.waitN || vfp != c.vfpN || div != c.divN {
		c.failf("%d RS entries, %d not ready, %d VFP, %d divides; counted %d, %d, %d, %d",
			n, wait, vfp, div, c.rsN, c.waitN, c.vfpN, c.divN)
	}
	for m := c.wheelMask; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros64(m); c.wheel[i].empty() {
			c.failf("wheel set %d is empty but marked in wheelMask %#x", i, c.wheelMask)
		}
	}
	if i := c.now & (wheelSize - 1); c.wheelMask&(1<<uint(i)) == 0 && !c.wheel[i].empty() {
		c.failf("wheel set %d is not empty but unmarked in wheelMask %#x", i, c.wheelMask)
	}
}

// refMemConflict is memConflict without its pruning side effect.
func (c *Core) refMemConflict(slot int) bool {
	line := c.rob.u[slot].Addr >> 6
	seq := c.rob.u[slot].Seq
	for _, ps := range c.pendingStores {
		if !(ps.issued && ps.doneAt <= c.now) && ps.line == line && older(ps.seq, seq) {
			return true
		}
	}
	return false
}

// checkWake asserts that a slot woken by its producer's issue was parked
// and has not issued. A squashed consumer left on a live producer's waiter
// list, or a list that loops, fails here instead of corrupting the lists.
func (c *Core) checkWake(w int32) {
	if c.rob.srcReady[w] != math.MaxInt64 || c.rob.flags[w]&robIssued != 0 ||
		!c.rsBits.has(int(w)) || c.pendingBits.has(int(w)) || c.readyBits.has(int(w)) {
		c.failf("woke slot %d (seq %#x) that is not parked", w, c.rob.u[w].Seq)
	}
}
