package workload

import (
	"perfstacks/internal/splitmix"
	"perfstacks/internal/trace"
)

// Memory layout bases for the synthetic address space. Regions are disjoint
// so code, heap and stack never alias.
const (
	codeBase   = 0x0000_0000_0040_0000
	driverBase = 0x0000_0000_003f_0000
	streamBase = 0x0000_0001_0000_0000
	chaseBase  = 0x0000_0002_0000_0000
	localBase  = 0x0000_0003_0000_0000
	storeBase  = 0x0000_0004_0000_0000
)

const numRegs = 32

// uopBytes is the nominal instruction size used for PC layout.
const uopBytes = 4

// staticCacheSize is the number of direct-mapped blockStatic cache entries
// (power of two). The cache only affects speed: static properties are pure
// functions of (seed, func, block, pos), so a conflict miss recomputes the
// identical values.
const staticCacheSize = 512

// Body uop kinds, resolved statically per (func, block, pos) from the
// profile's instruction mix. The dynamic generator switches on these instead
// of re-hashing the static mix draw on every block execution.
const (
	kindALU uint8 = iota
	kindMul
	kindDiv
	kindFP
	kindLoadStream
	kindLoadChase
	kindLoadLocal
	kindStoreStream
	kindStoreLocal
)

// uopStatic caches the static (per-PC) properties of one body uop: its
// resolved kind, the readRegs selector hashes, and microcode occupancy.
type uopStatic struct {
	kind  uint8
	micro uint8    // MicrocodeCycles to apply (0 = regular decode)
	fpOp  trace.Op // resolved FP op for kindFP
	rr    [2]uint64
}

// blockStatic caches the static properties of one basic block: the per-uop
// records plus the block-level loop and branch-shape draws.
type blockStatic struct {
	f, b  int
	valid bool
	// loop is the static half of loopTrips: whether this block self-loops.
	loop bool
	// brUnpred marks the terminating branch data-dependent (bias 0.5);
	// brBias is the taken bias of predictable branches (0.03 or 0.97).
	brUnpred bool
	brBias   float64
	uops     []uopStatic // BlockUops-1 body positions
}

// Generator streams uops for a Profile; it implements trace.Reader and
// trace.BatchReader.
type Generator struct {
	p   Profile
	rng splitmix.Source
	seq uint64

	nFuncs    int
	funcBytes uint64

	// scache is the direct-mapped static-property cache, keyed by
	// (func, block). It amortizes the per-static-hash work across the many
	// dynamic executions of each block (loop trips, function re-calls).
	scache []blockStatic

	// Execution cursor.
	inFunc    bool
	curFunc   int
	curBlock  int
	blockPos  int
	tripLeft  int
	funcTrips int
	retPC     uint64
	driverPC  uint64

	// Dataflow state.
	regs     [numRegs]uint64 // producer seq + 1; 0 = none
	lastLong uint64          // producer seq + 1 of last multi-cycle result
	lastLoad uint64          // producer seq + 1 of last load
	accChain uint64          // producer seq + 1 of the serial accumulator
	// Pointer-chase chains: per-chain LCG state and previous-load producer.
	chaseState   []uint64
	lastChase    []uint64 // producer seq + 1 of previous load in the chain
	chaseIdx     int
	lastChaseAny uint64 // producer seq + 1 of the most recent chase load
	streamCur    uint64
	storeCur     uint64

	sinceBarrier int
}

// NewGenerator builds a deterministic generator for p.
func NewGenerator(p Profile) *Generator {
	p = p.withDefaults()
	blockBytes := uint64(p.BlockUops * uopBytes)
	funcBytes := blockBytes * uint64(p.FuncBlocks)
	nFuncs := int(uint64(p.CodeFootprint) / funcBytes)
	if nFuncs < 1 {
		nFuncs = 1
	}
	g := &Generator{
		p:          p,
		rng:        splitmix.New(p.Seed ^ 0xabcdef12345),
		nFuncs:     nFuncs,
		funcBytes:  funcBytes,
		scache:     make([]blockStatic, staticCacheSize),
		chaseState: make([]uint64, p.ChaseChains),
		lastChase:  make([]uint64, p.ChaseChains),
		driverPC:   driverBase,
	}
	for i := range g.chaseState {
		g.chaseState[i] = hash64(p.Seed, uint64(i), 0xc4a5e) | 1
	}
	return g
}

// Profile returns the generator's configuration.
func (g *Generator) Profile() Profile { return g.p }

func (g *Generator) blockPC(f, b int) uint64 {
	return codeBase + uint64(f)*g.funcBytes + uint64(b)*uint64(g.p.BlockUops*uopBytes)
}

// staticHash derives stable per-static-instruction randomness.
func (g *Generator) staticHash(f, b, pos int, salt uint64) uint64 {
	return hash64(g.p.Seed, uint64(f)<<40|uint64(b)<<20|uint64(pos), salt)
}

// blockStatics returns the cached static record for block (f, b), computing
// and caching it on a miss. Values are pure functions of the seed, so cache
// replacement never changes the generated stream.
func (g *Generator) blockStatics(f, b int) *blockStatic {
	e := &g.scache[(f*g.p.FuncBlocks+b)&(staticCacheSize-1)]
	if !e.valid || e.f != f || e.b != b {
		g.fillBlockStatics(e, f, b)
	}
	return e
}

// fillBlockStatics computes every static draw of block (f, b): the per-uop
// mix resolution (including the MulBurst block modulation), the readRegs
// selector hashes, microcode flags, the loop-block draw and the branch
// shape. These were previously re-hashed on every dynamic execution.
func (g *Generator) fillBlockStatics(e *blockStatic, f, b int) {
	p := &g.p
	e.f, e.b, e.valid = f, b, true
	e.loop = float64(g.staticHash(f, b, 0, 0x100b)%1000)/1000 < p.LoopBlockFrac
	bh := g.staticHash(f, b, p.BlockUops-1, 0xb4a7c4)
	e.brUnpred = float64(bh%1000)/1000 < p.BranchEntropy
	if bh&1 == 0 {
		e.brBias = 0.03
	} else {
		e.brBias = 0.97
	}

	mulFrac := p.MulFrac
	if p.MulBurst > 0 {
		if float64(g.staticHash(f, b, 0, 0x31b)%1000)/1000 < p.MulBurst {
			mulFrac *= 4
		} else {
			mulFrac *= 0.4
		}
	}

	n := p.BlockUops - 1
	if cap(e.uops) < n {
		e.uops = make([]uopStatic, n)
	} else {
		e.uops = e.uops[:n]
	}
	for pos := 0; pos < n; pos++ {
		h := g.staticHash(f, b, pos, 0x5eed)
		s := &e.uops[pos]
		*s = uopStatic{kind: kindALU}
		x := float64(h%100000) / 100000
		switch {
		case x < p.LoadFrac:
			kind := float64(hash64(h, 0x10ad)%1000) / 1000
			switch {
			case kind < p.StreamFrac:
				s.kind = kindLoadStream
			case kind < p.StreamFrac+p.ChaseFrac:
				s.kind = kindLoadChase
			default:
				s.kind = kindLoadLocal
			}
		case x < p.LoadFrac+p.StoreFrac:
			if float64(hash64(h, 0x5707e)%1000)/1000 < p.StreamFrac {
				s.kind = kindStoreStream
			} else {
				s.kind = kindStoreLocal
			}
		case x < p.LoadFrac+p.StoreFrac+mulFrac:
			s.kind = kindMul
		case x < p.LoadFrac+p.StoreFrac+mulFrac+p.DivFrac:
			s.kind = kindDiv
		case x < p.LoadFrac+p.StoreFrac+mulFrac+p.DivFrac+p.FPFrac:
			s.kind = kindFP
			fk := float64(hash64(h, 0xf9)%1000) / 1000
			switch {
			case fk < p.FPFMAFrac:
				s.fpOp = trace.OpFMA
			case fk < p.FPFMAFrac+(1-p.FPFMAFrac)/2:
				s.fpOp = trace.OpFPAdd
			default:
				s.fpOp = trace.OpFPMul
			}
		}
		s.rr[0] = hash64(h, 0, 0x4e9)
		s.rr[1] = hash64(h, 1, 0x4e9)
		if p.MicrocodeFrac > 0 {
			if float64(g.staticHash(f, b, pos, 0x6dc0)%100000)/100000 < p.MicrocodeFrac {
				s.micro = uint8(p.MicrocodeCycles)
			}
		}
	}
}

// Next implements trace.Reader. The generator never ends; wrap it in a
// trace.Limit to bound runs.
func (g *Generator) Next() (trace.Uop, bool) {
	var u trace.Uop
	g.gen(&u)
	u.Seq = g.seq
	g.seq++
	return u, true
}

// ReadBatch implements trace.BatchReader: the generator writes each uop
// directly into the caller's batch, skipping the per-uop interface dispatch
// and return-value copies of the scalar path. The stream is bit-identical to
// repeated Next calls (the RNG draw order is untouched), and the generator
// never ends, so a full batch is always delivered.
func (g *Generator) ReadBatch(dst []trace.Uop) int {
	for i := range dst {
		g.gen(&dst[i])
		dst[i].Seq = g.seq
		g.seq++
	}
	return len(dst)
}

// Err implements trace.ErrReader: a synthetic generator cannot fail.
func (g *Generator) Err() error { return nil }

func (g *Generator) gen(u *trace.Uop) {
	// Barrier insertion at block boundaries.
	if g.p.BarrierEvery > 0 && g.sinceBarrier >= g.p.BarrierEvery && g.blockPos == 0 {
		g.sinceBarrier = 0
		*u = trace.Uop{
			PC: g.driverPC, Op: trace.OpBarrier,
			Src: noSrc(),
		}
		return
	}
	g.sinceBarrier++

	if !g.inFunc {
		// Driver: call the next function.
		f := zipfIndex(&g.rng, g.nFuncs, g.p.CodeSkew)
		g.inFunc = true
		g.curFunc = f
		g.curBlock = 0
		g.blockPos = 0
		g.tripLeft = g.loopTrips(f, 0)
		g.funcTrips = g.p.FuncLoop
		if g.funcTrips < 1 {
			g.funcTrips = 1
		}
		pc := g.driverPC
		g.driverPC = driverBase + (g.driverPC-driverBase+uopBytes)%512
		g.retPC = pc + uopBytes
		*u = trace.Uop{
			PC: pc, Op: trace.OpCall, Taken: true,
			Target: g.blockPC(f, 0), Src: noSrc(),
		}
		return
	}

	f, b, pos := g.curFunc, g.curBlock, g.blockPos
	st := g.blockStatics(f, b)
	pc := g.blockPC(f, b) + uint64(pos*uopBytes)

	// Block-terminating control flow.
	if pos == g.p.BlockUops-1 {
		g.genBranch(st, f, b, pc, u)
		return
	}
	g.blockPos++
	g.genBody(&st.uops[pos], pc, u)
}

func noSrc() [3]uint64 {
	return [3]uint64{trace.NoProducer, trace.NoProducer, trace.NoProducer}
}

// loopTrips returns the trip count for a block (1 = straight-line).
func (g *Generator) loopTrips(f, b int) int {
	if !g.blockStatics(f, b).loop {
		return 1
	}
	// Trip counts vary a little dynamically around the mean.
	t := g.p.InnerTrip/2 + g.rng.Intn(g.p.InnerTrip+1)
	if t < 2 {
		t = 2
	}
	return t
}

// genBranch emits the block-ending branch and advances control flow.
func (g *Generator) genBranch(st *blockStatic, f, b int, pc uint64, u *trace.Uop) {
	*u = trace.Uop{PC: pc, Src: noSrc()}

	// Self-loop back-edge while trips remain.
	if g.tripLeft > 1 {
		g.tripLeft--
		g.blockPos = 0
		u.Op = trace.OpBranch
		u.Taken = true
		u.Target = g.blockPC(f, b)
		return
	}

	// Last block of the function: loop the body or return to the driver.
	if b == g.p.FuncBlocks-1 {
		if g.funcTrips > 1 {
			g.funcTrips--
			g.curBlock = 0
			g.blockPos = 0
			g.tripLeft = g.loopTrips(f, 0)
			u.Op = trace.OpBranch
			u.Taken = true
			u.Target = g.blockPC(f, 0)
			return
		}
		g.inFunc = false
		u.Op = trace.OpRet
		u.Taken = true
		u.Target = g.retPC
		return
	}

	// Conditional branch to the next block (taken skips it occasionally).
	g.curBlock = b + 1
	g.blockPos = 0
	g.tripLeft = g.loopTrips(f, g.curBlock)

	var takenBias float64
	if st.brUnpred {
		takenBias = 0.5
		// Data-dependent branch: consumes the latest (preferably chase)
		// load value, coupling resolution latency to memory.
		if g.rng.Float64() < g.p.BranchLoadDep {
			if g.lastChaseAny != 0 {
				u.Src[0] = g.lastChaseAny - 1
			} else if g.lastLoad != 0 {
				u.Src[0] = g.lastLoad - 1
			}
		}
	} else {
		takenBias = st.brBias
	}

	u.Op = trace.OpBranch
	u.Taken = g.rng.Float64() < takenBias
	if u.Taken {
		// Skip one block ahead (or wrap inside the function).
		skip := b + 2
		if skip >= g.p.FuncBlocks {
			skip = g.p.FuncBlocks - 1
		}
		if skip != g.curBlock {
			g.curBlock = skip
			g.tripLeft = g.loopTrips(f, g.curBlock)
		}
		u.Target = g.blockPC(f, g.curBlock)
	}
}

// genBody emits a non-branch uop from its precomputed static record. The
// dynamic draws (register selection, chain joining, chase stepping) consume
// the RNG in exactly the order the unbatched generator did, so the stream is
// bit-identical regardless of static caching.
func (g *Generator) genBody(st *uopStatic, pc uint64, u *trace.Uop) {
	*u = trace.Uop{PC: pc, Src: noSrc()}
	p := &g.p

	switch st.kind {
	case kindLoadStream:
		u.Op = trace.OpLoad
		u.Addr = streamBase + g.streamCur
		g.streamCur = (g.streamCur + uint64(p.StreamStride)) % uint64(p.DataFootprint)
		g.readRegs(u, st, 1)
		g.writeReg(true)
		g.lastLoad = g.seq + 1
	case kindLoadChase:
		// Pointer chase: the address depends on the previous load of the
		// same chain; chains rotate to expose memory-level parallelism.
		u.Op = trace.OpLoad
		ci := g.chaseIdx
		g.chaseIdx = (g.chaseIdx + 1) % len(g.chaseState)
		stt := g.chaseState[ci]*6364136223846793005 + 1442695040888963407
		g.chaseState[ci] = stt
		span := uint64(p.ChaseHotBytes)
		if float64(stt>>40&0xffff)/65536 >= p.ChaseHotFrac {
			span = uint64(p.DataFootprint) // cold step across the footprint
		}
		u.Addr = chaseBase + (stt%span)&^7
		if g.lastChase[ci] != 0 && g.rng.Float64() >= p.ChaseRestart {
			u.Src[0] = g.lastChase[ci] - 1
		}
		g.lastChase[ci] = g.seq + 1
		g.lastChaseAny = g.seq + 1
		g.writeReg(true)
		g.lastLoad = g.seq + 1
	case kindLoadLocal:
		u.Op = trace.OpLoad
		u.Addr = localBase + uint64(g.rng.Intn(p.LocalBytes))&^7
		g.readRegs(u, st, 1)
		g.writeReg(true)
		g.lastLoad = g.seq + 1
	case kindStoreStream:
		u.Op = trace.OpStore
		u.Addr = storeBase + g.storeCur
		g.storeCur = (g.storeCur + uint64(p.StreamStride)) % uint64(p.DataFootprint)
		g.readRegs(u, st, 2) // data + address
	case kindStoreLocal:
		u.Op = trace.OpStore
		u.Addr = localBase + uint64(g.rng.Intn(p.LocalBytes))&^7
		g.readRegs(u, st, 2) // data + address
	case kindMul:
		u.Op = trace.OpMul
		g.readRegs(u, st, 2)
		// Mul-to-mul chains expose the multi-cycle latency when nothing
		// else stalls the pipeline (the hidden-ALU effect of Table I).
		if g.lastLong != 0 && g.rng.Float64() < p.ChainOnLong {
			u.Src[0] = g.lastLong - 1
		}
		g.writeReg(true)
		g.joinSerialChain(u)
	case kindDiv:
		u.Op = trace.OpDiv
		g.readRegs(u, st, 2)
		g.writeReg(true)
		g.joinSerialChain(u)
	case kindFP:
		u.Op = st.fpOp
		u.VecLanes = uint8(p.FPVecLanes)
		g.readRegs(u, st, 2)
		if g.lastLong != 0 && g.rng.Float64() < p.ChainOnLong {
			u.Src[0] = g.lastLong - 1
		}
		g.writeReg(true)
		g.joinSerialChain(u)
	default: // kindALU
		u.Op = trace.OpALU
		g.readRegs(u, st, 2)
		// Chains on multi-cycle producers (the imagick-style issue-stage
		// signature: single-cycle uops strung behind long-latency results).
		if g.lastLong != 0 && g.rng.Float64() < p.ChainOnLong {
			u.Src[0] = g.lastLong - 1
		}
		if p.SerialChainALU > 0 && g.rng.Float64() < p.SerialChainALU {
			if g.accChain != 0 {
				u.Src[1] = g.accChain - 1
			}
			g.accChain = g.seq + 1
		}
		g.writeReg(false)
	}

	// Microcode flagging (static property).
	u.MicrocodeCycles = st.micro
}

// readRegs fills up to n source operands from the register state, biased
// toward recent producers per ChainBias. The static selector hashes come
// from the uop's cached record.
func (g *Generator) readRegs(u *trace.Uop, st *uopStatic, n int) {
	for i := 0; i < n; i++ {
		var ri int
		if g.rng.Float64() < g.p.ChainBias {
			ri = int((g.seq + numRegs - 1) % numRegs) // most recent dest
		} else {
			ri = int((st.rr[i] + g.rng.Next()%8) % numRegs)
		}
		if v := g.regs[ri]; v != 0 {
			u.Src[i] = v - 1
		}
	}
}

// writeReg records this uop as the producer of its destination register.
// Long-latency producers are additionally remembered for chain shaping.
func (g *Generator) writeReg(long bool) {
	ri := int(g.seq % numRegs)
	g.regs[ri] = g.seq + 1
	if long {
		g.lastLong = g.seq + 1
	}
}

// joinSerialChain links a multi-cycle uop into the serial accumulator chain
// with probability SerialChain.
func (g *Generator) joinSerialChain(u *trace.Uop) {
	if g.p.SerialChain <= 0 || g.rng.Float64() >= g.p.SerialChain {
		return
	}
	if g.accChain != 0 {
		u.Src[1] = g.accChain - 1
	}
	g.accChain = g.seq + 1
}
