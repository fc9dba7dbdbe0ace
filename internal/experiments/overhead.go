package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"perfstacks/internal/bpred"
	"perfstacks/internal/cache"
	"perfstacks/internal/config"
	"perfstacks/internal/core"
	"perfstacks/internal/cpu"
	"perfstacks/internal/stats"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// OverheadResult quantifies the paper's §IV claim that adding multi-stage
// CPI stack and FLOPS stack accounting slows the simulator by less than 1%.
type OverheadResult struct {
	Workload string
	Machine  string
	Uops     uint64
	// Pairs is the number of (without, with accounting) run pairs, and
	// Samples the number of interleaved chunk pairs timed across them.
	Pairs, Samples int
	// BaseSeconds and AcctSeconds are the median CPU times of the runs
	// without and with accounting.
	BaseSeconds float64
	AcctSeconds float64
	// Ratio is the median over chunk pairs of the with/without CPU-time
	// ratio; RatioQ1 and RatioQ3 are its quartiles, the spread.
	Ratio, RatioQ1, RatioQ3 float64
	// OverheadPct is (Ratio - 1) * 100.
	OverheadPct float64
}

// overheadChunk is the number of core steps each run of a pair advances
// before the other runs: about a millisecond of simulation, so the two
// runs see the same host conditions, while the CPU-clock reads cost
// nothing measurable.
const overheadChunk = 4096

// Overhead measures the simulator's CPU time with accounting detached and
// with multi-stage CPI and FLOPS accounting attached, over pairs run pairs
// (at least 3).
//
// The two runs of a pair simulate the same trace side by side: they take
// turns advancing overheadChunk steps, alternating which goes first, and
// each turn is timed in the CPU time of the OS thread that runs it. Time
// the host gives to other processes does not count, and a change in host
// speed hits both halves of a chunk pair alike. Both runs step through the
// same cycles, so each chunk pair is one sample of the with/without ratio;
// the estimate is the median over all samples, which a few disturbed
// chunks cannot move.
func Overhead(spec RunSpec, pairs int) OverheadResult {
	if pairs < 3 {
		pairs = 3
	}
	prof := mustProfile("mcf")
	m := config.BDW()
	total := spec.Warmup + spec.Uops

	newCore := func(withAcct bool) *cpu.Core {
		hier := cache.NewHierarchy(m.Hierarchy)
		pred := bpred.NewTournament(m.Bpred)
		c := cpu.New(m.Core, hier, pred, trace.NewLimit(workload.NewGenerator(prof), total))
		if withAcct {
			c.Attach(core.NewMultiStageAccountant(core.Options{Width: m.Core.MinWidth()}))
			c.Attach(core.NewFLOPSAccountant(m.Core.VFPUnits, m.Core.VectorLanes))
		}
		return c
	}
	// turn advances c by one chunk and returns the thread CPU time it took.
	turn := func(c *cpu.Core) time.Duration {
		start := threadCPU()
		for i := 0; i < overheadChunk && c.Step(); i++ {
		}
		return threadCPU() - start
	}
	var ratios []float64
	// runPair runs one pair to completion, appending its chunk-pair ratios,
	// and returns the two runs' CPU times.
	runPair := func(accountedFirst bool) (base, acct time.Duration) {
		b, a := newCore(false), newCore(true)
		for !b.Finished() || !a.Finished() {
			var db, da time.Duration
			if accountedFirst {
				da, db = turn(a), turn(b)
			} else {
				db, da = turn(b), turn(a)
			}
			if db > 0 {
				ratios = append(ratios, float64(da)/float64(db))
			}
			base, acct = base+db, acct+da
			accountedFirst = !accountedFirst
		}
		return base, acct
	}

	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	runPair(false) // warm the code paths
	ratios = ratios[:0]
	base := make([]float64, pairs)
	acct := make([]float64, pairs)
	for i := range base {
		b, a := runPair(i%2 == 1)
		base[i], acct[i] = b.Seconds(), a.Seconds()
	}

	r := stats.Summarize(ratios)
	return OverheadResult{
		Workload:    prof.Name,
		Machine:     m.Name,
		Uops:        total,
		Pairs:       pairs,
		Samples:     len(ratios),
		BaseSeconds: stats.Summarize(base).Median,
		AcctSeconds: stats.Summarize(acct).Median,
		Ratio:       r.Median,
		RatioQ1:     r.Q1,
		RatioQ3:     r.Q3,
		OverheadPct: (r.Median - 1) * 100,
	}
}

// Render formats the measurement.
func (r OverheadResult) Render() string {
	var b strings.Builder
	b.WriteString("Accounting overhead (§IV claim: < 1% simulation-time increase)\n\n")
	fmt.Fprintf(&b, "%s on %s, %d uops, %d run pairs interleaved in %d chunk pairs, thread CPU time\n",
		r.Workload, r.Machine, r.Uops, r.Pairs, r.Samples)
	fmt.Fprintf(&b, "  without accounting: %.4fs\n", r.BaseSeconds)
	fmt.Fprintf(&b, "  with multi-stage CPI + FLOPS accounting: %.4fs\n", r.AcctSeconds)
	fmt.Fprintf(&b, "  overhead: %.2f%% (median chunk-pair ratio %.3f, quartiles %.3f-%.3f)\n",
		r.OverheadPct, r.Ratio, r.RatioQ1, r.RatioQ3)
	return b.String()
}
