package cpu

import (
	"testing"

	"perfstacks/internal/bpred"
	"perfstacks/internal/core"
	"perfstacks/internal/trace"
)

func feParams() *Params {
	p := tinyParams()
	return &p
}

func TestFrontendQueueFIFO(t *testing.T) {
	p := feParams()
	uops := make([]trace.Uop, 5)
	for i := range uops {
		uops[i] = alu(uint64(i))
	}
	fe := newFrontend(p, trace.NewSlice(uops), tinyHier(), bpred.Perfect{})
	// Fill across enough cycles to cover the cold I-cache miss.
	for cyc := int64(0); cyc < 400 && fe.qLen < 5; cyc++ {
		fe.fill(cyc)
	}
	for i := 0; i < 5; i++ {
		u, _, ok := fe.pop()
		if !ok {
			t.Fatalf("queue ran dry at %d", i)
		}
		if u.Seq != uint64(i) {
			t.Fatalf("pop %d returned seq %d", i, u.Seq)
		}
	}
	if _, _, ok := fe.pop(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestFrontendICacheStallCause(t *testing.T) {
	p := feParams()
	// Two distant lines force an I-cache miss mid-stream.
	uops := []trace.Uop{alu(0), alu(1), alu(2)}
	uops[1].PC = 0x800000
	uops[2].PC = 0x800004
	fe := newFrontend(p, trace.NewSlice(uops), tinyHier(), bpred.Perfect{})
	fe.fill(0)
	// First fill hits the cold miss on uop 0's line already; drain cycles
	// until the cause shows up.
	sawICache := false
	for cyc := int64(0); cyc < 400; cyc++ {
		fe.fill(cyc)
		if fe.cause() == core.FEICache {
			sawICache = true
		}
	}
	if !sawICache {
		t.Fatal("expected an I-cache stall cause")
	}
}

func TestFrontendMicrocodeCause(t *testing.T) {
	p := feParams()
	uops := []trace.Uop{alu(0)}
	uops[0].MicrocodeCycles = 5
	fe := newFrontend(p, trace.NewSlice(uops), tinyHier(), bpred.Perfect{})
	for cyc := int64(0); cyc < 300; cyc++ {
		fe.fill(cyc)
		if fe.qLen > 0 {
			break
		}
	}
	if fe.cause() != core.FEMicrocode {
		t.Fatalf("cause = %v, want microcode after delivering a microcoded uop", fe.cause())
	}
}

func TestFrontendWrongPathStallsUntilResolve(t *testing.T) {
	p := feParams()
	br := alu(0)
	br.Op = trace.OpBranch
	br.Taken = true
	br.Target = 0x7000
	uops := []trace.Uop{br, alu(1), alu(2)}
	// A predictor that always mispredicts.
	fe := newFrontend(p, trace.NewSlice(uops), tinyHier(), alwaysWrong{})
	for cyc := int64(0); cyc < 400 && fe.qLen == 0; cyc++ {
		fe.fill(cyc)
	}
	_, mispredict, ok := fe.pop()
	if !ok || !mispredict {
		t.Fatal("branch should have been delivered as mispredicted")
	}
	if !fe.wrongPath {
		t.Fatal("frontend should be on the wrong path")
	}
	// In WrongPathNone mode nothing more is delivered until resolve.
	before := fe.qLen
	fe.fill(500)
	if fe.qLen != before {
		t.Fatal("WrongPathNone must not deliver uops while unresolved")
	}
	if fe.cause() != core.FEBpred {
		t.Fatalf("cause = %v, want bpred", fe.cause())
	}
	fe.resolve(600)
	if fe.wrongPath {
		t.Fatal("resolve should clear the wrong path")
	}
	// Redirect penalty applies before correct-path fetch resumes.
	fe.fill(601)
	if fe.qLen != before {
		t.Fatal("redirect penalty should still block fetch")
	}
	fe.fill(600 + p.MispredictPenalty + 1)
	if fe.qLen == before {
		t.Fatal("fetch should resume after the redirect penalty")
	}
}

// alwaysWrong mispredicts every branch.
type alwaysWrong struct{}

func (alwaysWrong) Lookup(*trace.Uop) bpred.Outcome {
	return bpred.Outcome{Mispredicted: true, DirectionWrong: true}
}
func (alwaysWrong) Reset() {}

func TestFrontendSynthesizesWrongPath(t *testing.T) {
	p := feParams()
	p.WrongPath = WrongPathSynth
	br := alu(0)
	br.Op = trace.OpBranch
	br.Taken = true
	br.Target = 0x7000
	uops := []trace.Uop{br, alu(1)}
	fe := newFrontend(p, trace.NewSlice(uops), tinyHier(), alwaysWrong{})
	for cyc := int64(0); cyc < 400 && fe.qLen == 0; cyc++ {
		fe.fill(cyc)
	}
	fe.pop() // the branch
	fe.fill(500)
	u, _, ok := fe.pop()
	if !ok || !u.WrongPath {
		t.Fatal("synth mode should deliver wrong-path uops")
	}
	if u.Seq&wpBit == 0 {
		t.Fatal("wrong-path uops must use the wrong-path sequence space")
	}
	// Squash drops queued wrong-path uops but keeps correct-path ones.
	fe.squashQueue()
	for {
		u, _, ok := fe.pop()
		if !ok {
			break
		}
		if u.WrongPath {
			t.Fatal("squashQueue left a wrong-path uop behind")
		}
	}
}

func TestScoreboardCommittedProducersReady(t *testing.T) {
	sb := newScoreboard(16)
	sb.allocate(5, false)
	sb.issue(5, 100, 1, false, 0)
	sb.retire(5)
	// A producer older than the horizon is always ready.
	if at, ok := sb.readyAt(5); !ok || at != 0 {
		t.Fatalf("committed producer readyAt = (%d,%v), want (0,true)", at, ok)
	}
}

func TestScoreboardUnissuedNotReady(t *testing.T) {
	sb := newScoreboard(16)
	sb.allocate(7, false)
	if _, ok := sb.readyAt(7); ok {
		t.Fatal("unissued producer must not be ready")
	}
	sb.issue(7, 42, 3, false, 0)
	if at, ok := sb.readyAt(7); !ok || at != 42 {
		t.Fatalf("readyAt = (%d,%v), want (42,true)", at, ok)
	}
}

// TestScoreboardWaiterList checks the wake-up lists behind the issue
// stage's readiness memo: consumers parked on an unissued producer come back
// from its issue, newest first, exactly once; a re-dispatched sequence slot
// starts with an empty list.
func TestScoreboardWaiterList(t *testing.T) {
	sb := newScoreboard(16)
	next := make([]int32, 8)
	sb.allocate(3, false)
	next[4] = sb.park(3, 4)
	next[6] = sb.park(3, 6)
	var woken []int32
	for w := sb.issue(3, 10, 1, false, 0); w >= 0; w = next[w] {
		woken = append(woken, w)
	}
	if len(woken) != 2 || woken[0] != 6 || woken[1] != 4 {
		t.Fatalf("woken slots = %v, want [6 4]", woken)
	}
	if w := sb.issue(3, 10, 1, false, 0); w != -1 {
		t.Fatalf("second issue returned waiter %d, want an empty list", w)
	}
	sb.park(19, 2) // 19 shares 3's scoreboard slot in a 16-entry window
	sb.allocate(19, false)
	if w := sb.issue(19, 30, 1, false, 0); w != -1 {
		t.Fatalf("allocate kept a stale waiter %d", w)
	}
}

func TestScoreboardProducerClass(t *testing.T) {
	sb := newScoreboard(16)
	sb.allocate(1, true) // load
	sb.issue(1, 500, 200, true, 3)
	if cls, isLoad, _ := sb.producerClassDepth(1); cls != core.ProdDCache || !isLoad {
		t.Fatalf("missing load class = %v/%v", cls, isLoad)
	}
	sb.allocate(2, true) // load that hit
	sb.issue(2, 10, 4, false, 0)
	if cls, isLoad, _ := sb.producerClassDepth(2); cls != core.ProdLongLat || !isLoad {
		t.Fatalf("hit load class = %v/%v", cls, isLoad)
	}
	sb.allocate(3, false)
	sb.issue(3, 10, 5, false, 0)
	if cls, _, _ := sb.producerClassDepth(3); cls != core.ProdLongLat {
		t.Fatalf("mul class = %v", cls)
	}
	sb.allocate(4, false)
	sb.issue(4, 10, 1, false, 0)
	if cls, _, _ := sb.producerClassDepth(4); cls != core.ProdDepend {
		t.Fatalf("alu class = %v", cls)
	}
	if cls, _, _ := sb.producerClassDepth(trace.NoProducer); cls != core.ProdNone {
		t.Fatalf("no-producer class = %v", cls)
	}
}

func TestROBRing(t *testing.T) {
	r := newROB(4)
	if !r.empty() || r.full() {
		t.Fatal("fresh ROB state wrong")
	}
	for i := 0; i < 4; i++ {
		r.push(&trace.Uop{Seq: uint64(i)}, 1, false)
	}
	if !r.full() {
		t.Fatal("ROB should be full")
	}
	if r.u[r.headSlot()].Seq != 0 {
		t.Fatal("head should be the oldest entry")
	}
	r.pop()
	r.push(&trace.Uop{Seq: 4}, 1, false)
	if r.u[r.headSlot()].Seq != 1 {
		t.Fatal("ring order broken after wrap")
	}
}

func TestROBPopTailWrongPath(t *testing.T) {
	r := newROB(8)
	r.push(&trace.Uop{Seq: 0}, 1, false)
	r.push(&trace.Uop{Seq: 1, WrongPath: true}, 1, false)
	r.push(&trace.Uop{Seq: 2, WrongPath: true}, 1, false)
	if n := r.popTailWrongPath(); n != 2 {
		t.Fatalf("squashed %d, want 2", n)
	}
	if r.len() != 1 || r.u[r.headSlot()].Seq != 0 {
		t.Fatal("correct-path entry should survive the squash")
	}
}

func TestClassifyHeadEntry(t *testing.T) {
	r := newROB(8)
	load := r.push(&trace.Uop{Op: trace.OpLoad}, 100, false)
	r.flags[load] |= robIssued | robDcacheMiss
	if r.classify(load) != core.ProdDCache {
		t.Fatal("missing load should classify DCache")
	}
	hit := r.push(&trace.Uop{Op: trace.OpLoad}, 4, false)
	r.flags[hit] |= robIssued
	if r.classify(hit) != core.ProdLongLat {
		t.Fatal("hit load has latency > 1: ALU class per Table II")
	}
	mul := r.push(&trace.Uop{Op: trace.OpMul}, 3, false)
	if r.classify(mul) != core.ProdLongLat {
		t.Fatal("mul should classify long-latency")
	}
	a := r.push(&trace.Uop{Op: trace.OpALU}, 1, false)
	if r.classify(a) != core.ProdDepend {
		t.Fatal("single-cycle op should classify dependence")
	}
}
