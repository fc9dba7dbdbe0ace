package cpu

import (
	"context"
	"math"

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

	rs []int // ROB slot indices awaiting issue, in age order
	// rsReadyFloor is a lower bound on every RS entry's srcReady memo, and
	// rsHasVFP whether the RS may hold a VFP entry. The full issue scan
	// recomputes both; dispatch resets the floor, since a new entry is not
	// scanned yet, which forces the next cycle's full scan; a squash only
	// removes entries, so both stay conservative. While now < rsReadyFloor
	// no entry can issue, and issue only refreshes the sample's two
	// classifications (issueNoneReady).
	rsReadyFloor int64
	rsHasVFP     bool

	// pendingStores tracks in-flight stores for memory disambiguation:
	// a load may not issue while an older store to the same line is not
	// complete. Entries are appended at dispatch and pruned lazily.
	pendingStores []pendingStore

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
	return &Core{
		p:            p,
		fe:           newFrontend(&p, tr, hier, pred),
		rob:          newROB(p.ROBSize),
		sb:           newScoreboard(p.ROBSize),
		hier:         hier,
		rs:           make([]int, 0, p.RSSize),
		divBusyUntil: make([]int64, nDiv),
	}
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
		s.RSEmpty = len(c.rs) == 0
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
	hasDiv := false
	for _, slot := range c.rs {
		if c.rob.op[slot] == trace.OpDiv {
			hasDiv = true
		}
		if t := c.rob.srcReady[slot]; t >= 0 && t < c.now {
			// Every operand arrived before now: no source can fire an event.
			// A memo >= now still needs the per-source walk below — the
			// blamed source (and with it the classification) changes at
			// the earliest source completion, not at the latest.
			continue
		}
		for _, src := range c.rob.u[slot].Src {
			if src == trace.NoProducer {
				continue
			}
			// Producers that have not issued cannot complete before some
			// other event fires first; issued ones complete at a known time.
			if t, ok := c.sb.readyAt(src); ok {
				consider(t)
			}
		}
	}
	if hasDiv {
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

// issue scans the reservation stations oldest-first, issuing ready uops to
// available ports, and gathers the issue-stage and VFP accounting signals.
//
// Readiness comes from the per-slot memo (scanOperands), so a waiting
// entry costs one comparison per cycle. The blamed producer is classified
// only while a sample field still wants it: Table II's first non-ready
// entry and Table III's oldest waiting VFP entry. Once both are recorded, a
// waiting entry contributes nothing to the sample.
func (c *Core) issue(s *core.CycleSample) {
	if c.now < c.rsReadyFloor {
		c.issueNoneReady(s)
		return
	}
	var ports portsInUse
	r := c.rob
	issued := 0
	n := 0 // c.rs[:n] holds the entries that stay, in age order
	foundNonReady := false
	vfpSeen := false // the oldest waiting VFP entry has been recorded
	floor := int64(math.MaxInt64)

	for i, slot := range c.rs {
		if issued >= c.p.IssueWidth {
			// Issue width spent: every remaining entry stays. If no VFP
			// entry was recorded yet, the oldest remaining one waits on a
			// structural limit (ProdNone).
			if !vfpSeen {
				for _, rest := range c.rs[i:] {
					if r.op[rest].IsVFP() {
						noteWaitingVFP(s, &vfpSeen, core.ProdNone, false)
						break
					}
				}
			}
			n += copy(c.rs[n:], c.rs[i:])
			floor = math.MinInt64 // the rest were not scanned this cycle
			break
		}

		// Operands available this cycle: a fixed ready time that has
		// passed, or a scan (first visit, or after a wake) that finds them.
		// A parked slot's srcReady is MaxInt64.
		t := r.srcReady[slot]
		ready := t <= c.now && (t != math.MinInt64 || c.scanOperands(slot))
		if invariant.Enabled {
			c.checkReady(slot, ready)
		}
		if !ready {
			// Not ready: record the first non-ready entry's producer class
			// (Table II issue column) and the oldest waiting VFP uop
			// (Table III).
			if !foundNonReady || !vfpSeen {
				isVFP := r.op[slot].IsVFP()
				if !foundNonReady || isVFP {
					cls, isLoad, depth := c.blame(slot)
					if !foundNonReady {
						foundNonReady = true
						s.FirstNonReadyClass = cls
						s.FirstNonReadyMissDepth = depth
					}
					if isVFP {
						noteWaitingVFP(s, &vfpSeen, cls, isLoad)
					}
				}
			}
			floor = min(floor, r.srcReady[slot])
			c.rs[n] = slot
			n++
			continue
		}

		op := r.op[slot]
		if c.p.MemDisambiguation && op == trace.OpLoad && c.memConflict(slot) {
			// Load blocked behind an older in-flight store to its line: the
			// issue-only "memory address conflict" structural stall.
			if !s.IssueBlockedPort && !s.IssueBlockedMemOrder {
				s.IssueBlockedMemOrder = true
			}
			floor = math.MinInt64 // ready now, may issue next cycle
			c.rs[n] = slot
			n++
			continue
		}

		if !c.portFree(&ports, op) {
			// Ready but structurally blocked: stays in the RS; if it is the
			// oldest waiting entry the stall is structural (ProdNone).
			if !s.IssueBlockedPort && !s.IssueBlockedMemOrder {
				s.IssueBlockedPort = true
			}
			if op.IsVFP() {
				noteWaitingVFP(s, &vfpSeen, core.ProdNone, false)
			}
			floor = math.MinInt64 // ready now, may issue next cycle
			c.rs[n] = slot
			n++
			continue
		}

		c.execute(s, slot)
		issued++
	}
	c.rs = c.rs[:n]
	c.rsReadyFloor = floor
	c.rsHasVFP = vfpSeen // some kept entry is VFP exactly when one was recorded

	s.RSEmpty = n == 0
	c.lastIssue = s.IssueYoungest
}

// issueNoneReady is issue for a cycle in which no RS entry can be ready
// (now < rsReadyFloor): nothing issues, so the full scan would only visit
// every entry as non-ready. Its sample fields are the classifications of
// the first entry (Table II's first non-ready entry) and of the first VFP
// entry (Table III's oldest waiting VFP), which depend on the cycle.
func (c *Core) issueNoneReady(s *core.CycleSample) {
	if invariant.Enabled {
		for _, slot := range c.rs {
			c.checkReady(slot, false)
		}
	}
	s.RSEmpty = len(c.rs) == 0
	if len(c.rs) > 0 {
		cls, _, depth := c.blame(c.rs[0])
		s.FirstNonReadyClass = cls
		s.FirstNonReadyMissDepth = depth
	}
	if c.rsHasVFP {
		for _, slot := range c.rs {
			if c.rob.op[slot].IsVFP() {
				s.VFPInRS = true
				s.OldestVFPClass, s.OldestVFPWaitsLoad, _ = c.blame(slot)
				break
			}
		}
	}
}

// noteWaitingVFP records Table III's signals for a VFP entry that stays in
// the RS this cycle: VFPInRS, and the producer class of the oldest such
// entry (the first one noted).
func noteWaitingVFP(s *core.CycleSample, seen *bool, cls core.ProdClass, producerIsLoad bool) {
	s.VFPInRS = true
	if *seen {
		return
	}
	*seen = true
	s.OldestVFPClass = cls
	s.OldestVFPWaitsLoad = producerIsLoad
}

// scanOperands walks a waiting slot's source operands — on the slot's first
// issue cycle, and again each time execute wakes it — and reports whether
// they are all available this cycle. This is the issue stage's readiness
// memo (DESIGN.md §12). Once every producer has issued, the operand-ready
// time is fixed — an issued producer's doneAt never changes, and a
// committed one was done by then — so it is stored in srcReady and the
// issue loop's check is one comparison from then on. A scan that stops at
// an unissued producer parks the slot on that producer's waiter list
// (srcReady = MaxInt64): the entry cannot become ready before that producer
// issues, and execute wakes it when it does. The answers are exactly those
// of a full operand walk every cycle.
func (c *Core) scanOperands(slot int) bool {
	r := c.rob
	var latest int64
	for _, src := range &r.u[slot].Src {
		t, ok := c.sb.readyAt(src)
		if !ok {
			r.waitNext[slot] = c.sb.park(src, int32(slot))
			r.srcReady[slot] = math.MaxInt64
			return false
		}
		if t > latest {
			latest = t
		}
	}
	r.srcReady[slot] = latest
	return latest <= c.now
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

// portFree checks and claims a functional-unit port for op.
func (c *Core) portFree(ports *portsInUse, op trace.Op) bool {
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
			for i := range c.divBusyUntil {
				if c.divBusyUntil[i] <= c.now {
					unit = i
					break
				}
			}
			if unit < 0 {
				return false
			}
			c.divBusyUntil[unit] = c.now + c.p.latency(trace.OpDiv)
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
	line := c.rob.u[slot].Addr >> 6
	seq := c.rob.u[slot].Seq
	kept := c.pendingStores[:0]
	conflict := false
	for _, ps := range c.pendingStores {
		if ps.issued && ps.doneAt <= c.now {
			continue // store complete: no longer a hazard
		}
		kept = append(kept, ps)
		if ps.line == line && older(ps.seq, seq) {
			conflict = true
		}
	}
	c.pendingStores = kept
	return conflict
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

// execute issues one ready uop to its functional unit.
func (c *Core) execute(s *core.CycleSample, slot int) {
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
	// Wake the consumers parked on this producer: each rescans its operands
	// when the issue loop reaches it. Consumers are younger than their
	// producer, so this cycle's scan still visits them, and the RS floor it
	// computes covers them.
	for w := c.sb.issue(u.Seq, doneAt, c.rob.lat[slot], miss, missDepth); w >= 0; w = c.rob.waitNext[w] {
		if invariant.Enabled {
			c.checkWake(w)
		}
		c.rob.srcReady[w] = math.MinInt64
	}

	if c.rob.flags[slot]&robMispredict != 0 {
		c.hasResolve = true
		c.resolveAt = doneAt
		c.resolveSeq = u.Seq
	}

	if u.WrongPath {
		s.IssueWrongN++
		s.IssueYoungest = u.Seq
		return
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
}

// dispatch moves decoded uops into the ROB and reservation stations.
func (c *Core) dispatch(s *core.CycleSample) {
	for n := 0; n < c.p.DispatchWidth; n++ {
		if c.rob.full() {
			s.ROBFull = true
			break
		}
		if len(c.rs) >= c.p.RSSize {
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
		c.rs = append(c.rs, slot)
		c.rsReadyFloor = math.MinInt64 // scanned on its first issue cycle
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
	if removed > 0 {
		kept := c.rs[:0]
		for _, slot := range c.rs {
			if c.rob.u[slot].WrongPath {
				continue
			}
			kept = append(kept, slot)
		}
		c.rs = kept
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
