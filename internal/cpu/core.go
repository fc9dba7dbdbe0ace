package cpu

import (
	"context"
	"math"
	"math/bits"

	"perfstacks/internal/bpred"
	"perfstacks/internal/cache"
	"perfstacks/internal/core"
	"perfstacks/internal/invariant"
	"perfstacks/internal/trace"
)

// Accountant consumes one CycleSample per simulated cycle. Both the CPI
// stack and FLOPS stack accountants implement it.
type Accountant interface {
	Cycle(*core.CycleSample)
}

// Stats aggregates run statistics beyond what the accountants measure.
type Stats struct {
	Cycles        int64
	Committed     uint64
	Loads         uint64
	Stores        uint64
	Branches      uint64
	Mispredicts   uint64
	WrongPathUops uint64
	SquashedUops  uint64
	VFPUops       uint64
	FLOPs         uint64
	BarrierWaits  int64
	// ICacheStallCycles is the total fetch stall time due to I-cache misses.
	ICacheStallCycles int64
}

// IPC returns committed uops per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// CPI returns cycles per committed uop.
func (s Stats) CPI() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Committed)
}

// Core is one out-of-order core instance bound to a trace, a cache
// hierarchy and a branch predictor.
type Core struct {
	p    Params
	fe   *frontend
	rob  *rob
	sb   *scoreboard
	hier *cache.Hierarchy

	// The reservation stations, as sets of ROB ring slots (DESIGN.md §12).
	// Every RS entry is in rsBits and in exactly one readiness state:
	// ready (readyBits: its operands are available, srcReady <= now),
	// pending (every producer has issued, so srcReady is a fixed future
	// cycle) or parked on an unissued producer's waiter list (srcReady =
	// MaxInt64). A pending entry due within wheelSize cycles sits in the
	// wheel set of its cycle, wheel[srcReady%wheelSize], which issue moves
	// to readyBits when that cycle comes, and wheelMask marks the non-empty
	// wheel sets; a later one sits in pendingBits, and pendingFloor is a
	// lower bound on their srcReady. vfpBits marks the RS entries that are
	// VFP uops. rsN, waitN and vfpN count the entries, the non-ready ones
	// and the VFP ones, so issue skips empty scans, and divN the divides,
	// for nextEvent.
	rsBits, readyBits, pendingBits, vfpBits slotSet
	wheel                                   []slotSet
	wheelMask                               uint64
	rsN, waitN, vfpN, divN                  int
	pendingFloor                            int64
	promotedTo                              int64 // the last issue cycle

	// pendingStores tracks in-flight stores for memory disambiguation:
	// a load may not issue while an older store to the same line is not
	// complete. Entries are appended at dispatch and pruned lazily, at most
	// once per cycle (storesPruned is the last cycle pruned).
	pendingStores []pendingStore
	storesPruned  int64

	divBusyUntil []int64 // non-pipelined divide units (the IntMulDiv pool)

	now       int64
	finished  bool
	sample    core.CycleSample
	accts     []Accountant
	lastDisp  uint64
	lastIssue uint64

	hasResolve bool
	resolveAt  int64
	resolveSeq uint64

	// Barrier / SMP state.
	yielded         bool
	barrierReleased bool
	barrierWaiter   func(*Core)
	// BarrierCount is the number of barriers this core has reached.
	BarrierCount int

	// warmupLeft suppresses accounting samples for the first N committed
	// uops (cache/predictor warm-up, mirroring the paper's fast-forward).
	warmupLeft uint64

	// noSkip disables event-driven idle-window skipping (the debugging
	// escape hatch behind sim.Options.NoSkip). Skipping is also disabled
	// automatically while a barrier waiter is installed: SMP harnesses step
	// cores in lockstep against a shared uncore, and a core that jumps
	// ahead would interleave its shared-cache accesses out of simulated-time
	// order with its siblings'.
	noSkip bool

	// ctx, when non-nil, lets Run stop cooperatively mid-trace. The check
	// is periodic (every cancelCheckMask+1 steps) and lives in Run's loop,
	// not in Step, so the per-cycle hot path is untouched.
	ctx      context.Context
	canceled bool

	// Stats accumulates run statistics.
	Stats Stats

	ref issueRef // simdebug only: the reference issue walk's snapshot
}

// New builds a core. The trace reader supplies correct-path uops; the
// hierarchy and predictor may be shared across runs but must be Reset by the
// caller between runs.
func New(p Params, hier *cache.Hierarchy, pred bpred.Predictor, tr trace.Reader) *Core {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	nDiv := p.IntMulDivs
	if nDiv < 1 {
		nDiv = 1
	}
	c := &Core{
		p:            p,
		fe:           newFrontend(&p, tr, hier, pred),
		rob:          newROB(p.ROBSize),
		sb:           newScoreboard(p.ROBSize),
		hier:         hier,
		divBusyUntil: make([]int64, nDiv),
		pendingFloor: math.MaxInt64,
		storesPruned: -1,
	}
	sets := newSlotSets(len(c.rob.u), 4+wheelSize)
	c.rsBits, c.readyBits, c.pendingBits, c.vfpBits = sets[0], sets[1], sets[2], sets[3]
	c.wheel = sets[4:]
	if invariant.Enabled {
		c.newIssueRef()
	}
	return c
}

// Params returns the core configuration.
func (c *Core) Params() Params { return c.p }

// Attach registers accountants that receive one sample per cycle.
func (c *Core) Attach(accts ...Accountant) { c.accts = append(c.accts, accts...) }

// SetWarmup suppresses accounting (and the cycle/instruction counters the
// accountants see) until n uops have committed, mirroring the paper's
// fast-forward phase that warms caches and predictors before detailed
// measurement.
//
// The warm-up boundary is sample-granular: the cycle whose commits cross the
// remaining warm-up count is dropped whole — its entire sample, including the
// commits beyond the boundary, is suppressed — and accounting starts with the
// next sample. Idle-window skipping preserves this exactly: skipped windows
// commit nothing, so they can never straddle the boundary.
func (c *Core) SetWarmup(n uint64) { c.warmupLeft = n }

// SetNoSkip disables (true) or re-enables (false) event-driven idle-window
// skipping. With skipping disabled the core iterates every cycle of every
// stall window — bit-identical results, useful for debugging the skip logic
// and for measuring its speedup.
func (c *Core) SetNoSkip(v bool) { c.noSkip = v }

// Warm reports whether warm-up has completed.
func (c *Core) Warm() bool { return c.warmupLeft == 0 }

// Now returns the current cycle.
func (c *Core) Now() int64 { return c.now }

// Finished reports whether the trace has fully committed.
func (c *Core) Finished() bool { return c.finished }

// SetBarrierWaiter installs the SMP harness callback invoked when the core
// reaches a barrier uop at commit. Without a waiter, barriers commit like
// ordinary uops.
func (c *Core) SetBarrierWaiter(fn func(*Core)) { c.barrierWaiter = fn }

// ReleaseBarrier lets a yielded core proceed past its barrier.
func (c *Core) ReleaseBarrier() {
	c.yielded = false
	c.barrierReleased = true
}

// Yielded reports whether the core is waiting at a barrier.
func (c *Core) Yielded() bool { return c.yielded }

// Step advances the core by at least one cycle. When the cycle turns out to
// be idle — no stage made progress and every pending event's timestamp is
// known — Step additionally jumps the clock over the provably-dead remainder
// of the stall window, emitting one batched sample (CycleSample.Repeat) in
// place of the per-cycle ones. It returns false once the core has finished
// (trace drained and pipeline empty).
//
//simlint:hotpath
func (c *Core) Step() bool {
	if c.finished {
		return false
	}

	qLen0 := c.fe.qLen
	s := &c.sample
	*s = core.CycleSample{
		Cycle:            c.now,
		DispatchYoungest: c.lastDisp,
		IssueYoungest:    c.lastIssue,
	}

	if c.yielded {
		s.Unsched = true
		s.FECause = core.FEUnsched
		s.RSEmpty = c.rsN == 0
		s.ROBEmpty = c.rob.empty()
		s.FEEmpty = true
		c.Stats.BarrierWaits++
		c.emit(s)
		c.now++
		c.Stats.Cycles = c.now
		return true
	}

	// 1. Branch resolution: squash the wrong path and redirect fetch.
	if c.hasResolve && c.now >= c.resolveAt {
		c.squashWrongPath()
		s.HasSquash = true
		s.SquashAfter = c.resolveSeq
		c.fe.resolve(c.now)
		c.hasResolve = false
	}

	// 2. Commit stage.
	c.commit(s)

	// 3. Issue stage.
	c.issue(s)

	// 4. Dispatch stage.
	c.dispatch(s)

	// 5. Fetch/decode refills the queue for next cycle.
	if !c.yielded {
		n, qFull := c.fe.fill(c.now)
		s.FetchN = n
		s.FetchQueueFull = qFull
		s.FetchCause = c.fe.cause()
	}

	c.emit(s)
	c.now++
	c.Stats.Cycles = c.now

	if c.fe.exhausted() && c.rob.empty() {
		c.finished = true
		// Fetch-stall statistics are folded in once at the end of the run
		// rather than being re-assigned every cycle.
		c.Stats.ICacheStallCycles = c.fe.icacheStalls
		return false
	}

	// Event-driven stall skipping: if this cycle was provably idle — no
	// stage made progress, nothing was squashed, and the frontend neither
	// delivered nor synthesized uops — then every cycle until the next
	// pending event is identical to it. Jump the clock there and emit one
	// batched sample for the window.
	if !c.noSkip && c.barrierWaiter == nil &&
		s.CommitN == 0 && s.IssueN == 0 && s.IssueWrongN == 0 &&
		s.DispatchN == 0 && s.DispatchWrongN == 0 && s.FetchN == 0 &&
		!s.HasSquash && c.fe.qLen == qLen0 {
		if next := c.nextEvent(); next > c.now && next != math.MaxInt64 {
			s.Cycle = c.now
			s.Repeat = next - c.now
			// dispatch() sampled the frontend cause before fill ran this
			// cycle; the window's cycles observe the post-fill state (e.g. a
			// redirect penalty expiring straight into an I-cache miss), so
			// refresh the frontend-derived fields before emitting.
			s.FECause = c.fe.cause()
			s.WrongPath = c.fe.wrongPath
			c.emit(s)
			c.now = next
			c.Stats.Cycles = c.now
		}
	}
	return true
}

// nextEvent returns the earliest cycle >= c.now at which the idle pipeline's
// state can change, or math.MaxInt64 when no timed event is pending. It is
// only meaningful right after an idle cycle: nothing dispatched, issued,
// committed or fetched, so the only state transitions left are timed ones —
// a pending branch resolution, the frontend's stall expiring (I-cache miss
// return, redirect penalty, microcode occupancy), the ROB head completing,
// an in-flight producer of a waiting RS entry completing (which can both
// ready the consumer and change the blamed-producer classification), a
// non-pipelined divider freeing up, or an in-flight store completing and
// releasing a memory-order-blocked load.
func (c *Core) nextEvent() int64 {
	next := int64(math.MaxInt64)
	consider := func(t int64) { //simlint:partial non-escaping closure, stack-allocated; BenchmarkSimulatorThroughput holds 0 allocs/op
		if t >= c.now && t < next {
			next = t
		}
	}

	if c.hasResolve {
		consider(c.resolveAt)
	}
	consider(c.fe.stallUntil)
	if h := c.rob.headSlot(); h >= 0 && c.rob.flags[h]&robIssued != 0 {
		consider(c.rob.doneAt[h])
	}
	// A ready entry's operands all arrived by the last issue cycle, before
	// now, so none of its sources is a future event. Every other entry is
	// pending (memo >= now) or parked, and still needs the per-source walk:
	// the blamed source, and with it the classification, changes at the
	// earliest source completion, not at the memo (the latest).
	for w, x := range c.rsBits {
		for x &^= c.readyBits[w]; x != 0; x &= x - 1 {
			slot := w<<6 + bits.TrailingZeros64(x)
			if c.rob.srcReady[slot] != math.MaxInt64 {
				// Pending: every source had issued when place recorded its
				// ready cycle. One that has committed since reads as ready
				// at 0 now, but was done before now either way.
				for _, t := range &c.rob.srcAt[slot] {
					consider(t)
				}
				continue
			}
			for _, src := range &c.rob.u[slot].Src {
				if src == trace.NoProducer {
					continue
				}
				// Producers that have not issued cannot complete before some
				// other event fires first; issued ones complete at a known
				// time.
				if t, ok := c.sb.readyAt(src); ok {
					consider(t)
				}
			}
		}
	}
	if c.divN > 0 {
		// A waiting divide can become issuable when a divider frees up.
		for _, t := range c.divBusyUntil {
			consider(t)
		}
	}
	for i := range c.pendingStores {
		if c.pendingStores[i].issued {
			consider(c.pendingStores[i].doneAt)
		}
	}
	return next
}

func (c *Core) emit(s *core.CycleSample) {
	if c.warmupLeft > 0 {
		n := uint64(s.CommitN)
		if n >= c.warmupLeft {
			c.warmupLeft = 0
		} else {
			c.warmupLeft -= n
		}
		return
	}
	for _, a := range c.accts {
		a.Cycle(s)
	}
}

// commit retires up to CommitWidth finished uops in order.
func (c *Core) commit(s *core.CycleSample) {
	for n := 0; n < c.p.CommitWidth; n++ {
		h := c.rob.headSlot()
		if h < 0 {
			break
		}
		if !c.rob.doneBy(h, c.now) {
			break
		}
		if c.rob.u[h].Op == trace.OpBarrier && c.barrierWaiter != nil && !c.barrierReleased {
			c.yielded = true
			c.BarrierCount++
			c.barrierWaiter(c)
			break
		}
		if c.rob.u[h].Op == trace.OpBarrier {
			c.barrierReleased = false
		}
		seq := c.rob.u[h].Seq
		c.sb.retire(seq)
		c.rob.pop()
		c.Stats.Committed++
		s.CommitN++
		s.HasCommit = true
		s.CommitThrough = seq
	}

	s.ROBEmpty = c.rob.empty()
	if h := c.rob.headSlot(); h >= 0 {
		s.ROBHeadNotDone = !c.rob.doneBy(h, c.now)
		s.ROBHeadClass = c.rob.classify(h)
		s.ROBHeadMissDepth = c.rob.depth[h]
	}
}

// pendingStore is one in-flight store hazard.
type pendingStore struct {
	seq    uint64
	line   uint64
	doneAt int64 // math.MaxInt64 until issued
	issued bool
}

// portsInUse tracks per-cycle functional unit availability.
type portsInUse struct {
	alu, muldiv, load, store, vfp int
}

// issue issues ready uops oldest-first to available ports, and gathers the
// issue-stage and VFP accounting signals.
//
// It walks only readyBits, in age order from the ROB head, one word of the
// sets at a time: an entry that is not ready cannot issue, and its only
// effect on the sample is through the two classifications Table II and
// Table III want. Once the walk is done with a word, that word's oldest
// non-ready and oldest VFP entries are read off its bits. Port,
// memory-order and issue-width logic are those of a walk over every RS
// entry; DESIGN.md §12 gives the equivalence, and under simdebug
// checkIssue replays that walk every cycle.
func (c *Core) issue(s *core.CycleSample) {
	r := c.rob
	if c.wheelMask != 0 && c.wheelMask&c.dueWheelSets() != 0 || c.now >= c.pendingFloor {
		c.promote()
	}
	c.promotedTo = c.now
	if invariant.Enabled {
		c.snapshotIssue()
	}
	var ports portsInUse
	issued := 0
	// stop is the age of the entry whose issue spent the issue width: a
	// walk over every RS entry would have visited exactly the entries
	// older than it. Without that, every entry is visited.
	stop := r.mask + 1
	// nr and v are the ages of the oldest non-ready entry and of the oldest
	// VFP entry that stays, among the entries older than the stop point.
	nr, v := -1, -1
	doneNR, doneV := c.waitN == 0, c.vfpN == 0
	// readyLeft counts the ready entries the walk has not reached: once it
	// is 0 and both entries are settled, no word further on matters.
	readyLeft := c.rsN - c.waitN
	end1, end2 := r.runs()
walk:
	for run, lo, hi := 0, r.head, end1; run < 2; run, lo, hi = run+1, 0, end2 {
		for w := lo >> 6; w<<6 < hi; w++ {
			m := wordRange(w, lo, hi)
			for x := c.readyBits[w] & m; x != 0; {
				b := bits.TrailingZeros64(x)
				x &= x - 1
				readyLeft--
				slot := w<<6 + b
				op := r.op[slot]
				if c.p.MemDisambiguation && op == trace.OpLoad && c.memConflict(slot) {
					// Load blocked behind an older in-flight store to its
					// line: the issue-only "memory address conflict"
					// structural stall.
					if !s.IssueBlockedPort && !s.IssueBlockedMemOrder {
						s.IssueBlockedMemOrder = true
					}
					continue
				}
				if !c.portFree(&ports, op, c.divBusyUntil) {
					// Ready but structurally blocked: stays in the RS.
					if !s.IssueBlockedPort && !s.IssueBlockedMemOrder {
						s.IssueBlockedPort = true
					}
					continue
				}
				readied := c.execute(s, slot)
				if issued++; issued == c.p.IssueWidth {
					stop = (slot - r.head) & r.mask
					m &= 2<<uint(b) - 1 // the entries older than the stop point
					break
				}
				if readied {
					// A zero-latency producer readied a younger entry, maybe
					// of this word: re-read it past this slot.
					x = c.readyBits[w] & m &^ (2<<uint(b) - 1)
					readyLeft = c.rsN // no longer a count: walk to the end
				}
			}
			// This word's entries that the walk reached are settled for the
			// cycle: a wake touches only entries younger than its producer.
			if !doneNR {
				if x := (c.rsBits[w] &^ c.readyBits[w]) & m; x != 0 {
					nr, doneNR = (w<<6+bits.TrailingZeros64(x)-r.head)&r.mask, true
				}
			}
			if !doneV {
				if x := c.vfpBits[w] & m; x != 0 {
					v, doneV = (w<<6+bits.TrailingZeros64(x)-r.head)&r.mask, true
				}
			}
			if stop <= r.mask || readyLeft <= 0 && doneNR && doneV {
				break walk
			}
		}
	}

	// Table II issue column: the producer class of the oldest non-ready
	// entry the walk reached.
	var nrCls core.ProdClass
	var nrLoad bool
	if nr >= 0 {
		var depth uint8
		nrCls, nrLoad, depth = c.blame(r.slotAt(nr))
		s.FirstNonReadyClass = nrCls
		s.FirstNonReadyMissDepth = depth
	}
	// Table III: the oldest VFP entry that stays in the RS. A non-ready one
	// the walk reached is blamed on its producer; a ready one was
	// port-blocked, and one past the stop point waits on the issue width —
	// both structural (ProdNone, the sample's zero value).
	if v >= 0 {
		s.VFPInRS = true
		if slot := r.slotAt(v); !c.readyBits.has(slot) {
			if v == nr {
				s.OldestVFPClass, s.OldestVFPWaitsLoad = nrCls, nrLoad
			} else {
				s.OldestVFPClass, s.OldestVFPWaitsLoad, _ = c.blame(slot)
			}
		}
	} else if c.vfpN > 0 {
		s.VFPInRS = true
	}
	if invariant.Enabled {
		c.checkIssue(s)
	}

	s.RSEmpty = c.rsN == 0
	c.lastIssue = s.IssueYoungest
}

// wheelSize is the number of wheel sets, one bit of wheelMask each: the
// horizon, in cycles, within which a pending entry's ready cycle has its
// own set.
const wheelSize = 64

// dueWheelSets returns the wheelMask bits of the cycles since the last
// issue cycle, promotedTo+1 through now.
func (c *Core) dueWheelSets() uint64 {
	d := c.now - c.promotedTo
	if d >= wheelSize {
		return ^uint64(0)
	}
	return bits.RotateLeft64(1<<uint(d)-1, int((c.promotedTo+1)&(wheelSize-1)))
}

// promote moves the pending entries whose operands are available this
// cycle to readyBits: the wheel sets of the cycles since the last issue
// cycle, and the due entries of pendingBits, whose others move to the wheel
// once they are due within its horizon.
//
// The wheel sets are exact because entries are filed only during issue
// and dispatch, at a cycle no later than promotedTo, with a ready cycle
// less than wheelSize cycles on: the entries pending at promotedTo that
// share a set share their ready cycle. promote stays out of line: inlined,
// it bloats issue's hot walk for a path most cycles skip.
//
//go:noinline
func (c *Core) promote() {
	for due := c.wheelMask & c.dueWheelSets(); due != 0; due &= due - 1 {
		set := c.wheel[bits.TrailingZeros64(due)]
		for w, x := range set {
			c.readyBits[w] |= x
			c.waitN -= bits.OnesCount64(x)
			set[w] = 0
		}
	}
	c.wheelMask &^= c.dueWheelSets()
	if c.now < c.pendingFloor {
		return
	}
	floor := int64(math.MaxInt64)
	for w, x := range c.pendingBits {
		for ; x != 0; x &= x - 1 {
			b := bits.TrailingZeros64(x)
			slot := w<<6 + b
			t := c.rob.srcReady[slot]
			switch {
			case t <= c.now:
				c.readyBits[w] |= 1 << uint(b)
				c.waitN--
			case t-c.now < wheelSize:
				c.wheel[t&(wheelSize-1)].set(slot)
				c.wheelMask |= 1 << uint(t&(wheelSize-1))
			default:
				floor = min(floor, t)
				continue
			}
			c.pendingBits[w] &^= 1 << uint(b)
		}
	}
	c.pendingFloor = floor
}

// place scans a waiting slot's source operands — when it dispatches, and
// again each time execute wakes it — and files it in its readiness state.
// This is the issue stage's readiness memo (DESIGN.md §12). Once every
// producer has issued, the operand-ready time is fixed — an issued
// producer's doneAt never changes, and a committed one was done by then —
// so it is stored in srcReady and the slot is ready, or pending until that
// cycle. A scan that stops at an unissued producer parks the slot on that
// producer's waiter list (srcReady = MaxInt64): the entry cannot become
// ready before that producer issues, and execute wakes it when it does.
// It reports whether the slot is ready.
func (c *Core) place(slot int, srcs *[3]uint64) bool {
	r := c.rob
	var latest int64
	var at [3]int64
	for i, src := range srcs {
		t, ok := c.sb.readyAt(src)
		if !ok {
			r.waitNext[slot] = c.sb.park(src, int32(slot))
			r.srcReady[slot] = math.MaxInt64
			return false
		}
		at[i] = t
		if t > latest {
			latest = t
		}
	}
	r.srcReady[slot] = latest
	if latest <= c.now {
		c.readyBits.set(slot)
		return true
	}
	r.srcAt[slot] = at
	if latest-c.now < wheelSize {
		c.wheel[latest&(wheelSize-1)].set(slot)
		c.wheelMask |= 1 << uint(latest&(wheelSize-1))
	} else {
		c.pendingBits.set(slot)
		c.pendingFloor = min(c.pendingFloor, latest)
	}
	return false
}

// leaveRS removes a squashed slot from every reservation-station set.
func (c *Core) leaveRS(slot int) {
	if !c.readyBits.has(slot) {
		c.waitN--
		if t := c.rob.srcReady[slot]; t != math.MaxInt64 && !c.pendingBits.has(slot) {
			i := t & (wheelSize - 1)
			c.wheel[i].clear(slot)
			if c.wheel[i].empty() {
				c.wheelMask &^= 1 << uint(i)
			}
		}
	}
	if c.vfpBits.has(slot) {
		c.vfpN--
	} else if c.rob.op[slot] == trace.OpDiv {
		c.divN--
	}
	w, keep := slot>>6, ^(uint64(1) << uint(slot&63))
	c.rsBits[w] &= keep
	c.readyBits[w] &= keep
	c.pendingBits[w] &= keep
	c.vfpBits[w] &= keep
	c.rsN--
}

// blame classifies the producer a non-ready slot is blamed on for Table
// II's issue column: the first source operand, in order, whose producer has
// not issued or is still executing this cycle. It returns the producer's
// class, whether it is a load, and its miss depth.
func (c *Core) blame(slot int) (cls core.ProdClass, isLoad bool, depth uint8) {
	for _, src := range &c.rob.u[slot].Src {
		if src == trace.NoProducer {
			continue
		}
		if t, ok := c.sb.readyAt(src); !ok || t > c.now {
			return c.sb.producerClassDepth(src)
		}
	}
	return core.ProdDepend, false, 0
}

// portFree checks and claims a functional-unit port for op; a divide also
// claims a free unit of divBusy (the cycle each divider frees up).
func (c *Core) portFree(ports *portsInUse, op trace.Op, divBusy []int64) bool {
	switch op {
	case trace.OpLoad:
		if ports.load >= c.p.LoadPorts {
			return false
		}
		ports.load++
	case trace.OpStore:
		if ports.store >= c.p.StorePorts {
			return false
		}
		ports.store++
	case trace.OpMul, trace.OpDiv:
		if ports.muldiv >= c.p.IntMulDivs {
			return false
		}
		if op == trace.OpDiv {
			// Divides are not pipelined: need a unit whose divider is free.
			unit := -1
			for i := range divBusy {
				if divBusy[i] <= c.now {
					unit = i
					break
				}
			}
			if unit < 0 {
				return false
			}
			divBusy[unit] = c.now + c.p.latency(trace.OpDiv)
		}
		ports.muldiv++
	case trace.OpFPAdd, trace.OpFPMul, trace.OpFPDiv, trace.OpFMA, trace.OpVInt:
		if ports.vfp >= c.p.VFPUnits {
			return false
		}
		ports.vfp++
	case trace.OpBroadcast:
		// Memory-broadcast form: executes on a load port.
		if ports.load >= c.p.LoadPorts {
			return false
		}
		ports.load++
	case trace.OpNop, trace.OpALU, trace.OpBranch, trace.OpCall, trace.OpRet,
		trace.OpBarrier:
		if ports.alu >= c.p.IntALUs {
			return false
		}
		ports.alu++
	}
	return true
}

// memConflict reports whether an older in-flight store to the load's line
// has not yet completed; completed and squashed entries are pruned.
func (c *Core) memConflict(slot int) bool {
	if c.storesPruned != c.now {
		// Once per cycle: a store that issues later this cycle completes
		// after it, so no prune later in the cycle would remove more.
		kept := c.pendingStores[:0]
		for _, ps := range c.pendingStores {
			if ps.issued && ps.doneAt <= c.now {
				continue // store complete: no longer a hazard
			}
			kept = append(kept, ps)
		}
		c.pendingStores = kept
		c.storesPruned = c.now
	}
	line := c.rob.u[slot].Addr >> 6
	seq := c.rob.u[slot].Seq
	for i := range c.pendingStores {
		if ps := &c.pendingStores[i]; ps.line == line && older(ps.seq, seq) {
			return true
		}
	}
	return false
}

// older orders sequence numbers across the correct-path and wrong-path
// spaces: wrong-path uops are always younger than correct-path ones in the
// window (they were fetched after the mispredicted branch).
func older(a, b uint64) bool {
	aw, bw := a&wpBit != 0, b&wpBit != 0
	if aw != bw {
		return !aw // correct-path is older than wrong-path
	}
	return a < b
}

// execute issues one ready uop to its functional unit. It reports whether
// a consumer it woke is ready this same cycle (a zero-latency producer).
func (c *Core) execute(s *core.CycleSample, slot int) (readied bool) {
	u := &c.rob.u[slot]
	var doneAt int64
	var miss bool
	var missDepth uint8
	//simlint:partial only memory ops touch the hierarchy; every other op completes after its precomputed latency
	switch u.Op {
	case trace.OpLoad:
		var depth int
		doneAt, depth = c.hier.DataDepth(u.Addr, c.now, false)
		miss = depth > 0
		missDepth = uint8(depth)
		c.rob.lat[slot] = doneAt - c.now
		if miss {
			c.rob.flags[slot] |= robDcacheMiss
		}
		c.rob.depth[slot] = missDepth
		if !u.WrongPath {
			c.Stats.Loads++
		}
	case trace.OpStore:
		// Stores complete into the store buffer; the cache access charges
		// hierarchy state (fills, MSHRs, bandwidth) without blocking retire.
		c.hier.Data(u.Addr, c.now, true)
		doneAt = c.now + c.p.Lat.Store
		if c.p.MemDisambiguation {
			for i := range c.pendingStores {
				if c.pendingStores[i].seq == u.Seq {
					c.pendingStores[i].issued = true
					c.pendingStores[i].doneAt = doneAt
					break
				}
			}
		}
		if !u.WrongPath {
			c.Stats.Stores++
		}
	default:
		doneAt = c.now + c.rob.lat[slot]
	}
	c.rob.flags[slot] |= robIssued
	c.rob.doneAt[slot] = doneAt
	w, bit := slot>>6, uint64(1)<<uint(slot&63)
	c.rsBits[w] &^= bit
	c.readyBits[w] &^= bit
	if u.Op.IsVFP() {
		c.vfpBits[w] &^= bit
		c.vfpN--
	} else if u.Op == trace.OpDiv {
		c.divN--
	}
	c.rsN--
	// Wake the consumers parked on this producer: each rescans its operands
	// now and is filed as ready, pending or parked on its next unissued
	// producer.
	for w := c.sb.issue(u.Seq, doneAt, c.rob.lat[slot], miss, missDepth); w >= 0; {
		if invariant.Enabled {
			c.checkWake(w)
		}
		next := c.rob.waitNext[w]
		if c.place(int(w), &c.rob.u[w].Src) {
			c.waitN--
			readied = true
		}
		w = next
	}

	if c.rob.flags[slot]&robMispredict != 0 {
		c.hasResolve = true
		c.resolveAt = doneAt
		c.resolveSeq = u.Seq
	}

	if u.WrongPath {
		s.IssueWrongN++
		s.IssueYoungest = u.Seq
		return readied
	}
	s.IssueN++
	s.IssueYoungest = u.Seq

	if u.Op.IsVFP() {
		s.VFPIssued++
		s.VFPActiveLanes += u.ActiveLanes()
		s.VFPFlops += u.FLOPs()
		c.Stats.VFPUops++
		c.Stats.FLOPs += uint64(u.FLOPs())
	} else if u.Op.UsesVectorUnit() {
		s.VUNonVFP++
	}
	return readied
}

// dispatch moves decoded uops into the ROB and reservation stations.
func (c *Core) dispatch(s *core.CycleSample) {
	for n := 0; n < c.p.DispatchWidth; n++ {
		if c.rob.full() {
			s.ROBFull = true
			break
		}
		if c.rsN >= c.p.RSSize {
			s.RSFull = true
			break
		}
		u, mispredict, ok := c.fe.pop()
		if !ok {
			s.FEEmpty = true
			break
		}
		slot := c.rob.push(u, c.p.latency(u.Op), mispredict)
		c.sb.allocate(u.Seq, u.Op == trace.OpLoad)
		c.rsBits.set(slot)
		c.rsN++
		if u.Op.IsVFP() {
			c.vfpBits.set(slot)
			c.vfpN++
		} else if u.Op == trace.OpDiv {
			c.divN++
		}
		if !c.place(slot, &u.Src) {
			c.waitN++
		}
		if c.p.MemDisambiguation && u.Op == trace.OpStore {
			c.pendingStores = append(c.pendingStores, pendingStore{
				seq: u.Seq, line: u.Addr >> 6,
			})
		}

		if u.WrongPath {
			s.DispatchWrongN++
			c.Stats.WrongPathUops++
		} else {
			s.DispatchN++
			if u.Op.IsBranch() {
				c.Stats.Branches++
			}
			if mispredict {
				c.Stats.Mispredicts++
			}
		}
		s.DispatchYoungest = u.Seq
		c.lastDisp = u.Seq
	}

	s.FECause = c.fe.cause()
	s.WrongPath = c.fe.wrongPath
}

// squashWrongPath removes wrong-path uops from the ROB, the reservation
// stations and the decoded queue when a mispredicted branch resolves.
func (c *Core) squashWrongPath() {
	removed := c.rob.popTailWrongPath()
	c.Stats.SquashedUops += uint64(removed)
	for i := 0; i < removed; i++ {
		// The removed entries sit just past the new tail. pendingFloor stays
		// a lower bound: removing entries cannot lower the true minimum.
		if slot := c.rob.slotAt(c.rob.count + i); c.rsBits.has(slot) {
			c.leaveRS(slot)
		}
	}
	if removed > 0 && len(c.pendingStores) > 0 {
		kept := c.pendingStores[:0]
		for _, ps := range c.pendingStores {
			if ps.seq&wpBit != 0 {
				continue
			}
			kept = append(kept, ps)
		}
		c.pendingStores = kept
	}
	c.fe.squashQueue()
}

// SetContext installs a context for cooperative cancellation: Run returns
// early (with partial statistics) once ctx is done, and Canceled reports it.
// A nil context restores the unconditional run loop.
func (c *Core) SetContext(ctx context.Context) { c.ctx = ctx }

// Canceled reports whether Run stopped early because its context was done.
// A canceled run's statistics and accounting cover only the cycles executed
// before the stop and must not be mistaken for a complete measurement.
func (c *Core) Canceled() bool { return c.canceled }

// cancelCheckMask spaces the context polls in Run: one check per 8192 steps
// keeps the cancellation latency far below human-perceptible while staying
// immeasurable next to the per-step simulation work.
const cancelCheckMask = 1<<13 - 1

// Run steps the core to completion and returns its statistics. With a
// context installed (SetContext), the loop additionally polls ctx.Done()
// every few thousand steps and stops early when it fires.
func (c *Core) Run() Stats {
	if c.ctx == nil {
		for c.Step() {
		}
		return c.Stats
	}
	done := c.ctx.Done()
	for n := uint(1); c.Step(); n++ {
		if n&cancelCheckMask == 0 {
			select {
			case <-done:
				c.canceled = true
				return c.Stats
			default:
			}
		}
	}
	return c.Stats
}
