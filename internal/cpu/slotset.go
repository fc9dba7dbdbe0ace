package cpu

// slotSet is a bitset over ROB ring slots, one bit per slot. The issue
// stage keeps its reservation-station states as slotSets (DESIGN.md §12);
// because the ring is a power of two, walking a set from the ROB head with
// wrap-around visits its slots oldest first (rob.runs).
type slotSet []uint64

// newSlotSets carves n slotSets for a ring of the given size out of one
// backing array, so the issue stage's sets share cache lines.
func newSlotSets(ring, n int) []slotSet {
	words := (ring + 63) / 64
	backing := make([]uint64, words*n)
	sets := make([]slotSet, n)
	for i := range sets {
		sets[i] = slotSet(backing[i*words : (i+1)*words : (i+1)*words])
	}
	return sets
}

func (b slotSet) set(i int)      { b[i>>6] |= 1 << uint(i&63) }
func (b slotSet) clear(i int)    { b[i>>6] &^= 1 << uint(i&63) }
func (b slotSet) has(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// empty reports whether no slot is set.
func (b slotSet) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// runs splits the in-flight slots into two ascending runs, [head, end1)
// and [0, end2): age order from the head. end2 is 0 unless the window
// wraps. Sets hold only in-flight slots, so walks stop at the tail.
func (r *rob) runs() (end1, end2 int) {
	end, ring := r.head+r.count, r.mask+1
	if end <= ring {
		return end, 0
	}
	return ring, end - ring
}

// slotAt returns the ring slot at age k.
func (r *rob) slotAt(k int) int { return (r.head + k) & r.mask }

// wordRange masks word w of a slotSet to the slots in [lo, hi).
func wordRange(w, lo, hi int) uint64 {
	base := w << 6
	m := ^uint64(0)
	if lo > base {
		m <<= uint(lo - base)
	}
	if hi-base < 64 {
		m &= 1<<uint(hi-base) - 1
	}
	return m
}
