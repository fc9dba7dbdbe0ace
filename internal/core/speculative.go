package core

import "perfstacks/internal/invariant"

// specState implements the speculative-counter wrong-path scheme of §III-B:
// instead of adding stall cycles directly to the global counters, each
// cycle's dispatch- and issue-stage increments are kept in a per-uop
// speculative buffer. When a uop commits (proving it was correct-path) its
// buffered increments are added to the global counters; when a branch
// misprediction squashes uops, the buffered increments of the squashed
// (wrong-path) uops are folded into the global branch component.
type specState struct {
	pending []pendingEntry
	// committed accumulates folded increments per stage until flush adds
	// them to the stage accumulators. Only the dispatch and issue slots are
	// ever written: commit-stage accounting is never speculative.
	committed [NumStages][NumComponents]float64
}

// pendingEntry buffers the increments attributed to one uop. As with
// specState.committed, the commit-stage slot stays zero by construction.
type pendingEntry struct {
	seq       uint64
	wrongPath bool
	comp      [NumStages][NumComponents]float64
}

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

	e := sp.entry(seq, wrong)
	e.comp[st][CompBase] += f
	if f < 1 {
		e.comp[st][cls(s)] += 1 - f
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
	e := sp.entry(seq, s.WrongPath)
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
		e.comp[st][CompBase] += f
		if f < 1 {
			e.comp[st][cls(s)] += 1 - f
		}
		r--
	}
	if r > 0 {
		addWholeCycles(&e.comp[st][cls(s)], r)
	}
}

// entry finds or creates the pending entry for seq.
func (sp *specState) entry(seq uint64, wrong bool) *pendingEntry {
	// The attribution target is almost always the most recent entry.
	for i := len(sp.pending) - 1; i >= 0; i-- {
		if sp.pending[i].seq == seq && sp.pending[i].wrongPath == wrong {
			return &sp.pending[i]
		}
		if sp.pending[i].seq < seq {
			break
		}
	}
	sp.pending = append(sp.pending, pendingEntry{seq: seq, wrongPath: wrong})
	return &sp.pending[len(sp.pending)-1]
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
		if !e.wrongPath && e.seq <= through {
			for st := Stage(0); st < NumStages; st++ {
				for c := 0; c < int(NumComponents); c++ {
					sp.committed[st][c] += e.comp[st][c]
				}
			}
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
			for st := Stage(0); st < NumStages; st++ {
				var total float64
				for c := 0; c < int(NumComponents); c++ {
					total += e.comp[st][c]
				}
				sp.committed[st][CompBpred] += total
			}
			continue
		}
		if n != i {
			sp.pending[n] = *e
		}
		n++
	}
	sp.pending = sp.pending[:n]
}

// flush folds committed increments and any still-pending correct-path
// entries (end of trace: everything left commits) into the stage
// accumulators.
func (sp *specState) flush(stages *[NumStages]stageAcct) {
	sp.commit(^uint64(0)) // fold all remaining correct-path entries
	sp.squash()           // and drop any dangling wrong-path ones
	for st := Stage(0); st < NumStages; st++ {
		for c := 0; c < int(NumComponents); c++ {
			stages[st].comp[c] += sp.committed[st][c]
		}
	}
	sp.committed = [NumStages][NumComponents]float64{}
}
