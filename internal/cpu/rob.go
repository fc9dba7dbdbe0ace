package cpu

import (
	"perfstacks/internal/core"
	"perfstacks/internal/trace"
)

// wpBit marks wrong-path sequence numbers; they live in their own dense
// counter space so they never collide with trace sequence numbers.
const wpBit = uint64(1) << 63

// Per-entry ROB status flags (rob.flags).
const (
	robIssued uint8 = 1 << iota
	robDcacheMiss
	robMispredict // branch that was mispredicted (resolves at doneAt)
)

// rob is a ring-buffer reorder buffer laid out as a structure of arrays: the
// uop payloads, latencies, completion times and status flags live in dense
// parallel slices, so the issue loop's hot walks (srcScan over u[slot].Src,
// the per-slot flag checks) touch narrow homogeneous arrays instead of
// striding over one wide struct. The ring is sized to the next power of two
// above the architectural capacity so the per-uop slot arithmetic is a mask
// instead of an integer division (ROB sizes like 224 are not powers of two,
// and the modulo showed up hot in profiles).
//
// srcReady and waitNext are the issue stage's readiness memo for a waiting
// slot (see Core.place). srcReady is the earliest cycle the slot's operands
// can all be available: the fixed time (>= 0) once every producer has
// issued, and math.MaxInt64 while the slot is parked on an unissued
// producer's waiter list (linked through waitNext).
type rob struct {
	u        []trace.Uop
	op       []trace.Op // u[slot].Op, dense for the issue loop's per-entry walk
	lat      []int64
	doneAt   []int64
	srcReady []int64
	srcAt    [][3]int64 // a pending slot's source ready cycles, as place read them
	waitNext []int32
	flags    []uint8
	depth    []uint8 // cache levels missed by a load (0 = L1 hit)

	mask  int // len(u) - 1
	cap   int // architectural capacity (<= len(u))
	head  int
	count int
}

func newROB(size int) *rob {
	ring := 1
	for ring < size {
		ring <<= 1
	}
	return &rob{
		u:        make([]trace.Uop, ring),
		op:       make([]trace.Op, ring),
		lat:      make([]int64, ring),
		doneAt:   make([]int64, ring),
		srcReady: make([]int64, ring),
		srcAt:    make([][3]int64, ring),
		waitNext: make([]int32, ring),
		flags:    make([]uint8, ring),
		depth:    make([]uint8, ring),
		mask:     ring - 1,
		cap:      size,
	}
}

func (r *rob) full() bool  { return r.count == r.cap }
func (r *rob) empty() bool { return r.count == 0 }
func (r *rob) len() int    { return r.count }

// push allocates the tail slot for u and returns its index. The slot's
// timing and status columns are reset in place; dispatch fills its
// readiness memo.
func (r *rob) push(u *trace.Uop, lat int64, mispredict bool) int {
	slot := (r.head + r.count) & r.mask
	r.count++
	r.u[slot] = *u
	r.op[slot] = u.Op
	r.lat[slot] = lat
	r.doneAt[slot] = 0
	var f uint8
	if mispredict {
		f = robMispredict
	}
	r.flags[slot] = f
	r.depth[slot] = 0
	return slot
}

// headSlot returns the oldest in-flight slot (-1 when empty).
func (r *rob) headSlot() int {
	if r.count == 0 {
		return -1
	}
	return r.head
}

// doneBy reports whether the slot's uop has issued and completed by now.
func (r *rob) doneBy(slot int, now int64) bool {
	return r.flags[slot]&robIssued != 0 && r.doneAt[slot] <= now
}

// pop retires the head entry.
func (r *rob) pop() {
	r.head = (r.head + 1) & r.mask
	r.count--
}

// popTailWrongPath removes wrong-path entries from the tail (squash),
// returning how many were removed.
func (r *rob) popTailWrongPath() int {
	n := 0
	for r.count > 0 {
		slot := (r.head + r.count - 1) & r.mask
		if !r.u[slot].WrongPath {
			break
		}
		r.count--
		n++
	}
	return n
}

// classify applies the paper's blamed-instruction classification (Table II
// lines 10-16) to a slot: a load with an outstanding D-cache miss charges
// the D-cache component; an instruction with latency > 1 charges the ALU
// latency component; a single-cycle instruction charges dependence.
func (r *rob) classify(slot int) core.ProdClass {
	if r.u[slot].Op == trace.OpLoad {
		if r.flags[slot]&robDcacheMiss != 0 {
			return core.ProdDCache
		}
		// A hit load still has multi-cycle latency.
		return core.ProdLongLat
	}
	if r.lat[slot] > 1 {
		return core.ProdLongLat
	}
	return core.ProdDepend
}

// Scoreboard status flags (scoreboard.meta, low nibble); the high nibble
// holds the producer's miss depth.
const (
	sbIssued uint8 = 1 << iota
	sbIsLoad
	sbMiss
	sbLongLat // latency > 1, precomputed at issue
)

// scoreboard tracks producer readiness by sequence number. Correct-path and
// wrong-path uops have separate dense counter spaces; each space is a ring
// sized to the next power of two above the in-flight window, so the per-seq
// slot lookup is a mask rather than a division (idx() is the single hottest
// call in the issue loop). The two spaces share one pair of parallel arrays
// — completion times and packed status bytes — with the wrong-path half at
// offset size, so idx() is branch-free on the wpBit. Producers older than
// the in-flight window have committed and are always ready.
type scoreboard struct {
	done     []int64 // len 2*size: correct-path space, then wrong-path space
	meta     []uint8
	waiters  []int32 // head ROB slot of the producer's waiter list, -1 if none
	mask     uint64  // size - 1
	size     uint64
	oldestCP uint64 // sequence numbers below this have committed
}

func newScoreboard(window int) *scoreboard {
	size := 1
	for size < window {
		size <<= 1
	}
	sb := &scoreboard{
		done:    make([]int64, 2*size),
		meta:    make([]uint8, 2*size),
		waiters: make([]int32, 2*size),
		mask:    uint64(size - 1),
		size:    uint64(size),
	}
	for i := range sb.waiters {
		sb.waiters[i] = -1
	}
	return sb
}

// idx maps a sequence number to its slot: the masked counter, offset into
// the wrong-path half when the wpBit is set.
func (s *scoreboard) idx(seq uint64) uint64 {
	return seq&s.mask + (seq>>63)*s.size
}

// allocate resets the producer record when a uop dispatches.
func (s *scoreboard) allocate(seq uint64, isLoad bool) {
	i := s.idx(seq)
	s.done[i] = 0
	s.waiters[i] = -1
	var m uint8
	if isLoad {
		m = sbIsLoad
	}
	s.meta[i] = m
}

// issue records execution results. It detaches and returns the head of the
// producer's waiter list (-1 when no consumer is parked on it).
func (s *scoreboard) issue(seq uint64, doneAt, lat int64, miss bool, missDepth uint8) (waiters int32) {
	i := s.idx(seq)
	waiters = s.waiters[i]
	s.waiters[i] = -1
	s.done[i] = doneAt
	m := s.meta[i] | sbIssued | missDepth<<4
	if miss {
		m |= sbMiss
	}
	if lat > 1 {
		m |= sbLongLat
	}
	s.meta[i] = m
	return waiters
}

// park pushes a consumer ROB slot onto the waiter list of an unissued
// producer and returns the previous list head, which the caller links
// behind the slot.
func (s *scoreboard) park(seq uint64, slot int32) (next int32) {
	i := s.idx(seq)
	next = s.waiters[i]
	s.waiters[i] = slot
	return next
}

// readyAt returns when the producer's result is available, or (0,true) for
// committed/absent producers; ok=false when the producer has not issued yet.
func (s *scoreboard) readyAt(seq uint64) (int64, bool) {
	if seq == trace.NoProducer {
		return 0, true
	}
	if seq&wpBit == 0 && seq < s.oldestCP {
		return 0, true
	}
	i := s.idx(seq)
	if s.meta[i]&sbIssued == 0 {
		return 0, false
	}
	return s.done[i], true
}

// producerClassDepth classifies a producer for issue-stage accounting
// (Table II, issue column: the producer of the first non-ready instruction)
// and reports whether it is a load and its miss depth.
func (s *scoreboard) producerClassDepth(seq uint64) (cls core.ProdClass, isLoad bool, depth uint8) {
	if seq == trace.NoProducer || (seq&wpBit == 0 && seq < s.oldestCP) {
		return core.ProdNone, false, 0
	}
	m := s.meta[s.idx(seq)]
	if m&sbIsLoad != 0 {
		if m&(sbIssued|sbMiss) == sbIssued|sbMiss {
			return core.ProdDCache, true, m >> 4
		}
		return core.ProdLongLat, true, 0
	}
	if m&(sbIssued|sbLongLat) == sbIssued|sbLongLat {
		return core.ProdLongLat, false, 0
	}
	// Unissued producers and issued single-cycle ones are dependence-chain
	// stalls either way.
	return core.ProdDepend, false, 0
}

// retire advances the committed horizon.
func (s *scoreboard) retire(seq uint64) {
	if seq&wpBit == 0 && seq >= s.oldestCP {
		s.oldestCP = seq + 1
	}
}
