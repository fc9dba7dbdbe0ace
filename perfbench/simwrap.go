package main

import (
	"sync/atomic"
	"time"

	"perfstacks/internal/bpred"
	"perfstacks/internal/cache"
	"perfstacks/internal/config"
	"perfstacks/internal/core"
	"perfstacks/internal/cpu"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
)

// sampleEvery is the 1-in-N timing sample for boundaries crossed every
// simulated cycle or branch (Accountant.Cycle, Predictor.Lookup): every
// call is counted, one in sampleEvery is timed, so two clock reads do not
// swamp a call of about ten nanoseconds.
const sampleEvery = 64

// simCounters accumulates what the wrappers observe across simulations.
// The generator counters are atomic because SMP gangs read their traces
// from concurrent goroutines; the predictor and accountant wrappers are
// only used on single-core runs, which step on one goroutine.
type simCounters struct {
	genNs, genUops, genCalls atomic.Int64

	lookups, lookupCorrect     int64
	lookupSampled, lookupNs    int64
	acctCalls                  int64
	acctSamples, acctCycles    int64 // first accountant's calls and cycles
	acctSampled, acctSampledNs int64
}

// timedReader wraps a trace reader, timing every ReadBatch call and
// recording each as a span (a call per refill of the frontend's batch is
// coarse enough to record in full). It keeps
// the batched path: the frontend's trace.AsBatch sees a BatchReader and
// forwards to the inner reader's own ReadBatch (or trace.AsBatch's scalar
// adapter when the generator has none).
type timedReader struct {
	r   trace.BatchReader
	c   *simCounters
	rec *recorder
	job int64 // span parent and request id
}

func newTimedReader(r trace.Reader, c *simCounters, rec *recorder, job int64) *timedReader {
	return &timedReader{r: trace.AsBatch(r), c: c, rec: rec, job: job}
}

func (t *timedReader) Next() (trace.Uop, bool) {
	start := time.Now()
	u, ok := t.r.Next()
	t.c.genNs.Add(int64(time.Since(start)))
	t.c.genCalls.Add(1)
	if ok {
		t.c.genUops.Add(1)
	}
	return u, ok
}

func (t *timedReader) ReadBatch(dst []trace.Uop) int {
	t.c.genCalls.Add(1)
	start := t.rec.now()
	t0 := time.Now()
	n := t.r.ReadBatch(dst)
	d := int64(time.Since(t0))
	t.c.genNs.Add(d)
	t.c.genUops.Add(int64(n))
	if t.rec != nil {
		t.rec.add(span{ID: t.rec.newID(), Parent: t.job, Req: t.job, Name: "workload.ReadBatch", Start: start, End: start + d})
	}
	return n
}

func (t *timedReader) Err() error { return trace.ErrOf(t.r) }

// timedPredictor counts every Lookup and its outcome and times one call in
// sampleEvery.
type timedPredictor struct {
	p bpred.Predictor
	c *simCounters
}

func (t *timedPredictor) Lookup(u *trace.Uop) bpred.Outcome {
	t.c.lookups++
	var o bpred.Outcome
	if t.c.lookups%sampleEvery == 0 {
		start := time.Now()
		o = t.p.Lookup(u)
		t.c.lookupNs += int64(time.Since(start))
		t.c.lookupSampled++
	} else {
		o = t.p.Lookup(u)
	}
	if !o.Mispredicted {
		t.c.lookupCorrect++
	}
	return o
}

func (t *timedPredictor) Reset() { t.p.Reset() }

// timedAccountant counts every Cycle call and the simulated cycles it
// covers (CycleSample.Repeat > 1 for skipped idle windows), timing one call
// in sampleEvery. Only the first accountant of a core counts cycles, so
// the cycles-per-call ratio is per sample, not per accountant.
type timedAccountant struct {
	a           cpu.Accountant
	c           *simCounters
	countCycles bool
}

func (t *timedAccountant) Cycle(s *core.CycleSample) {
	t.c.acctCalls++
	if t.countCycles {
		t.c.acctSamples++
		rep := s.Repeat
		if rep < 1 {
			rep = 1
		}
		t.c.acctCycles += rep
	}
	if t.c.acctCalls%sampleEvery == 0 {
		start := time.Now()
		t.a.Cycle(s)
		t.c.acctSampledNs += int64(time.Since(start))
		t.c.acctSampled++
		return
	}
	t.a.Cycle(s)
}

// runWrapped is sim.RunCustom assembled from the same public constructors,
// with the predictor and every accountant wrapped. It exists so the traced
// run can time the predictor and accountant boundaries, which sim.Run
// builds internally; the output check proves it yields the same bytes as
// sim.Run. It also returns the hierarchy for its exact cache counters.
func runWrapped(m config.Machine, tr trace.Reader, opts sim.Options, c *simCounters) (sim.Result, *cache.Hierarchy) {
	if err := m.Validate(); err != nil {
		panic(err) // job configs are fixed and validated by sim.Run in the untraced run
	}
	m.Core.WrongPath = opts.WrongPath
	hier := cache.NewHierarchy(m.Hierarchy)
	var pred bpred.Predictor
	var tour *bpred.Tournament
	if m.Core.PerfectBpred {
		pred = bpred.Perfect{}
	} else {
		tour = bpred.NewTournament(m.Bpred)
		pred = tour
	}
	cp := cpu.New(m.Core, hier, &timedPredictor{p: pred, c: c}, tr)
	cp.SetNoSkip(opts.NoSkip)
	width := m.Core.MinWidth()
	first := true
	attach := func(a cpu.Accountant) {
		cp.Attach(&timedAccountant{a: a, c: c, countCycles: first})
		first = false
	}
	var (
		cpiAcct    *core.MultiStageAccountant
		flopsAcct  *core.FLOPSAccountant
		depthAcct  *core.MemDepthAccountant
		structAcct *core.StructuralAccountant
		fetchAcct  *core.FetchAccountant
	)
	if opts.CPI {
		cpiAcct = core.NewMultiStageAccountant(core.Options{Width: width, Scheme: opts.Scheme})
		attach(cpiAcct)
	}
	if opts.FLOPS {
		flopsAcct = core.NewFLOPSAccountant(m.Core.VFPUnits, m.Core.VectorLanes)
		attach(flopsAcct)
	}
	if opts.MemDepth {
		depthAcct = core.NewMemDepthAccountant(width)
		attach(depthAcct)
	}
	if opts.Structural {
		structAcct = core.NewStructuralAccountant(width)
		attach(structAcct)
	}
	if opts.Fetch {
		fetchAcct = core.NewFetchAccountant(width)
		attach(fetchAcct)
	}
	cp.SetWarmup(opts.WarmupUops)
	stats := cp.Run()

	res := sim.Result{Machine: m.Name, Stats: stats, Err: trace.ErrOf(tr)}
	if cpiAcct != nil {
		res.Stacks = cpiAcct.Finalize(0)
	}
	if flopsAcct != nil {
		res.FLOPS = flopsAcct.Finalize()
	}
	if depthAcct != nil {
		res.MemDepth = depthAcct.Finalize()
	}
	if structAcct != nil {
		res.Structural = structAcct.Finalize()
	}
	if fetchAcct != nil {
		res.Fetch = fetchAcct.Finalize()
	}
	if tour != nil {
		res.Bpred = tour.Stats
	}
	return res, hier
}
