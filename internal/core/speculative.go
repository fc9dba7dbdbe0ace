package core

import "perfstacks/internal/invariant"

// specState implements the speculative-counter wrong-path scheme of §III-B:
// instead of adding stall cycles directly to the global counters, each
// cycle's dispatch- and issue-stage increments are kept in a per-uop
// speculative buffer. When a uop commits (proving it was correct-path) its
// buffered increments are added to the global counters; when a branch
// misprediction squashes uops, the buffered increments of the squashed
// (wrong-path) uops are folded into the global branch component.
//
// The buffers live in two lists, each in creation order. An "orphan" is an
// entry whose seq is in the pipeline's wrong-path space but which was
// attributed as correct-path work: after a squash, dead cycles go to
// IssueYoungest+1 and DispatchYoungest+1, a wrong-path seq, while fetch is
// already back on the correct path. No commit folds an orphan (its seq is
// above every correct-path seq) and no squash drops it (it is not marked
// wrong-path); only flush does. Orphans therefore sit in their own list, off
// the per-commit walk, and flush merges the two lists back into creation
// order, so every float sum is folded in the order of a single list.
type specState struct {
	pending []pendingEntry // entries commit or squash can fold
	orphans []pendingEntry // entries only flush folds
	created uint64         // creation index of the next entry
	bufs    bufPool
	// committed accumulates folded increments per stage until flush adds
	// them to the stage accumulators. Only the dispatch and issue slots are
	// ever written: commit-stage accounting is never speculative.
	committed [NumStages][NumComponents]float64
}

// pendingEntry is the buffer of the increments attributed to one uop. The
// increments live in the pool, so the lists move only these small headers.
type pendingEntry struct {
	seq       uint64
	created   uint64 // creation index: the entry's place in a single list
	buf       int32  // the entry's increments, in specState.bufs
	wrongPath bool
}

// incBuf is one entry's increments. As with specState.committed, the
// commit-stage slot stays zero by construction.
type incBuf = [NumStages][NumComponents]float64

// bufChunk is the number of increment buffers per pool chunk.
const bufChunk = 256

// bufPool hands out increment buffers from fixed-size chunks, so growing
// it copies nothing and a buffer never moves; freed buffers are reused.
type bufPool struct {
	chunks [][]incBuf
	n      int32 // buffers ever handed out
	free   []int32
}

// get returns a zeroed buffer.
func (p *bufPool) get() int32 {
	if k := len(p.free); k > 0 {
		i := p.free[k-1]
		p.free = p.free[:k-1]
		*p.at(i) = incBuf{}
		return i
	}
	if int(p.n) == len(p.chunks)*bufChunk {
		p.chunks = append(p.chunks, make([]incBuf, bufChunk)) //simlint:partial amortized like append growth: one chunk per bufChunk buffers past the high-water mark
	}
	p.n++
	return p.n - 1
}

func (p *bufPool) at(i int32) *incBuf { return &p.chunks[i/bufChunk][i%bufChunk] }
func (p *bufPool) put(i int32)        { p.free = append(p.free, i) }

// wrongPathSeq marks sequence numbers in the pipeline's wrong-path space
// (cpu's wpBit); they order above every correct-path seq.
const wrongPathSeq = uint64(1) << 63

func newSpecState() *specState {
	return &specState{pending: make([]pendingEntry, 0, 256)}
}

// accountStage mirrors stageAcct.cycle but routes the increments into the
// per-uop buffer. st must be StageDispatch or StageIssue.
func (sp *specState) accountStage(st Stage, acct *stageAcct, s *CycleSample, n, w float64, cls func(*CycleSample) Component) {
	if invariant.Enabled && n > acct.dbgMaxN {
		acct.dbgMaxN = n
	}
	used := n + acct.carry
	var f float64
	if used >= w {
		acct.carry = used - w
		f = 1
	} else {
		acct.carry = 0
		f = used / w
	}

	// Determine the uop this cycle's activity is attributed to: the
	// youngest uop processed, or (on a dead cycle) the next uop expected.
	var seq uint64
	var wrong bool
	//simlint:partial only dispatch and issue account speculatively; callers never pass the commit or fetch stages
	switch st {
	case StageDispatch:
		if s.DispatchN+s.DispatchWrongN > 0 {
			seq = s.DispatchYoungest
			wrong = s.DispatchN == 0 && s.DispatchWrongN > 0
		} else {
			seq = s.DispatchYoungest + 1
			wrong = s.WrongPath
		}
	default: // StageIssue
		if s.IssueN+s.IssueWrongN > 0 {
			seq = s.IssueYoungest
			wrong = s.IssueN == 0 && s.IssueWrongN > 0
		} else {
			seq = s.IssueYoungest + 1
			wrong = s.WrongPath
		}
	}

	b := sp.entry(seq, wrong)
	b[st][CompBase] += f
	if f < 1 {
		b[st][cls(s)] += 1 - f
	}
}

// accountStageIdle is the batched-idle counterpart of accountStage: r
// consecutive cycles with zero throughput, attributed to the same next
// expected uop. Carry-draining cycles replay the per-cycle float operations
// exactly; the remainder adds whole cycles to the classified component.
func (sp *specState) accountStageIdle(st Stage, acct *stageAcct, s *CycleSample, w float64, cls func(*CycleSample) Component, r int64) {
	var seq uint64
	//simlint:partial only dispatch and issue account speculatively; callers never pass the commit or fetch stages
	switch st {
	case StageDispatch:
		seq = s.DispatchYoungest + 1
	default: // StageIssue
		seq = s.IssueYoungest + 1
	}
	b := sp.entry(seq, s.WrongPath)
	for r > 0 && acct.carry > 0 {
		used := acct.carry
		var f float64
		if used >= w {
			acct.carry = used - w
			f = 1
		} else {
			acct.carry = 0
			f = used / w
		}
		b[st][CompBase] += f
		if f < 1 {
			b[st][cls(s)] += 1 - f
		}
		r--
	}
	if r > 0 {
		addWholeCycles(&b[st][cls(s)], r)
	}
}

// entry finds or creates the buffer for seq. Its answers are those of a
// walk back from the newest entry of one creation-ordered list that returns
// the first entry matching (seq, wrong) and stops, creating a new entry, at
// the first one with a smaller seq. Each list is walked that way on its
// own; the single list would meet the later-created of the two lists'
// deciding entries first.
func (sp *specState) entry(seq uint64, wrong bool) *incBuf {
	e := sp.find(seq, wrong)
	if invariant.Enabled {
		sp.checkEntry(seq, wrong, e)
	}
	if e != nil {
		return sp.bufs.at(e.buf)
	}
	ne := pendingEntry{seq: seq, wrongPath: wrong, created: sp.created, buf: sp.bufs.get()}
	sp.created++
	if seq&wrongPathSeq != 0 && !wrong {
		sp.orphans = append(sp.orphans, ne)
	} else {
		sp.pending = append(sp.pending, ne)
	}
	return sp.bufs.at(ne.buf)
}

// find is entry's lookup; nil means entry creates a new buffer.
func (sp *specState) find(seq uint64, wrong bool) *pendingEntry {
	// The attribution target is almost always the most recent entry.
	p, pHit := decide(sp.pending, seq, wrong)
	// Orphans' seqs are above every correct-path seq, so a correct-path
	// lookup would pass over all of them without stopping.
	if seq&wrongPathSeq == 0 {
		if pHit {
			return &sp.pending[p]
		}
		return nil
	}
	o, oHit := decide(sp.orphans, seq, wrong)
	if o >= 0 && (p < 0 || sp.orphans[o].created > sp.pending[p].created) {
		if oHit {
			return &sp.orphans[o]
		}
		return nil
	}
	if pHit {
		return &sp.pending[p]
	}
	return nil
}

// decide walks es back from its newest entry to the first that matches
// (seq, wrong), hit, or has a smaller seq; -1 if there is none.
func decide(es []pendingEntry, seq uint64, wrong bool) (i int, hit bool) {
	for i = len(es) - 1; i >= 0; i-- {
		if es[i].seq == seq && es[i].wrongPath == wrong {
			return i, true
		}
		if es[i].seq < seq {
			return i, false
		}
	}
	return -1, false
}

// events processes the cycle's commit/squash notifications.
func (sp *specState) events(s *CycleSample) {
	if s.HasSquash {
		sp.squash()
	}
	if s.HasCommit {
		sp.commit(s.CommitThrough)
	}
}

// commit folds buffered increments of uops with seq <= through into the
// caller-visible buffers via commitBuf (collected at flush); increments are
// staged in committedComp so flush can add them to the stage accumulators.
//
// Kept entries are compacted in place, in their original order, and an
// entry is copied only when its index moves: the kept entries ahead of the
// first folded one stay where they are. Folding stays in list order, so the
// float sums are the same bit for bit.
func (sp *specState) commit(through uint64) {
	n := 0
	for i := range sp.pending {
		e := &sp.pending[i]
		if invariant.Enabled && !e.wrongPath && e.seq&wrongPathSeq != 0 {
			invariant.Assertf(false, "speculative orphan buffer for seq %#x in the commit walk", e.seq)
		}
		if !e.wrongPath && e.seq <= through {
			sp.fold(e.buf)
			continue
		}
		if n != i {
			sp.pending[n] = *e
		}
		n++
	}
	sp.pending = sp.pending[:n]
}

// squash folds all wrong-path buffered increments into the global branch
// component: their base cycles and stall cycles were all misprediction cost.
func (sp *specState) squash() {
	n := 0
	for i := range sp.pending {
		e := &sp.pending[i]
		if e.wrongPath {
			b := sp.bufs.at(e.buf)
			for st := Stage(0); st < NumStages; st++ {
				var total float64
				for c := 0; c < int(NumComponents); c++ {
					total += b[st][c]
				}
				sp.committed[st][CompBpred] += total
			}
			sp.bufs.put(e.buf)
			continue
		}
		if n != i {
			sp.pending[n] = *e
		}
		n++
	}
	sp.pending = sp.pending[:n]
}

// fold adds a committed entry's increments to sp.committed and frees its
// buffer.
func (sp *specState) fold(buf int32) {
	b := sp.bufs.at(buf)
	for st := Stage(0); st < NumStages; st++ {
		for c := 0; c < int(NumComponents); c++ {
			sp.committed[st][c] += b[st][c]
		}
	}
	sp.bufs.put(buf)
}

// flush folds committed increments and every still-pending correct-path
// entry, orphans included (end of trace: everything left commits), into
// the stage accumulators, in creation order; then the dangling wrong-path
// entries go to the branch component.
func (sp *specState) flush(stages *[NumStages]stageAcct) {
	kept := sp.pending[:0]
	p, o := 0, 0
	for p < len(sp.pending) || o < len(sp.orphans) {
		if o == len(sp.orphans) || (p < len(sp.pending) && sp.pending[p].created < sp.orphans[o].created) {
			if e := sp.pending[p]; e.wrongPath {
				kept = append(kept, e)
			} else {
				sp.fold(e.buf)
			}
			p++
			continue
		}
		sp.fold(sp.orphans[o].buf)
		o++
	}
	sp.pending, sp.orphans = kept, sp.orphans[:0]
	sp.squash()
	for st := Stage(0); st < NumStages; st++ {
		for c := 0; c < int(NumComponents); c++ {
			stages[st].comp[c] += sp.committed[st][c]
		}
	}
	sp.committed = [NumStages][NumComponents]float64{}
}
