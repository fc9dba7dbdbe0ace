package experiments

import (
	"fmt"
	"strings"
	"time"

	"perfstacks/internal/bpred"
	"perfstacks/internal/cache"
	"perfstacks/internal/config"
	"perfstacks/internal/core"
	"perfstacks/internal/cpu"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// OverheadResult quantifies the paper's §IV claim that adding multi-stage
// CPI stack and FLOPS stack accounting slows the simulator by less than 1%.
type OverheadResult struct {
	Workload    string
	Machine     string
	Uops        uint64
	BaseSeconds float64
	AcctSeconds float64
	// OverheadPct is (acct - base) / base * 100.
	OverheadPct float64
}

// Overhead measures simulation wall time with accounting detached vs with
// multi-stage CPI and FLOPS accounting attached, averaged over reps.
func Overhead(spec RunSpec, reps int) OverheadResult {
	if reps < 1 {
		reps = 3
	}
	prof := mustProfile("mcf")
	m := config.BDW()
	total := spec.Warmup + spec.Uops

	runOnce := func(withAcct bool) float64 {
		hier := cache.NewHierarchy(m.Hierarchy)
		pred := bpred.NewTournament(m.Bpred)
		c := cpu.New(m.Core, hier, pred, trace.NewLimit(workload.NewGenerator(prof), total))
		if withAcct {
			c.Attach(core.NewMultiStageAccountant(core.Options{Width: m.Core.MinWidth()}))
			c.Attach(core.NewFLOPSAccountant(m.Core.VFPUnits, m.Core.VectorLanes))
		}
		start := time.Now()
		c.Run()
		return time.Since(start).Seconds()
	}

	// Interleave the two kinds of run, so drift in host speed hits both
	// alike, and keep the best of each to damp scheduler noise.
	runOnce(false) // warm the code paths
	var base, acct float64
	for i := 0; i < reps; i++ {
		if t := runOnce(false); base == 0 || t < base {
			base = t
		}
		if t := runOnce(true); acct == 0 || t < acct {
			acct = t
		}
	}

	return OverheadResult{
		Workload:    prof.Name,
		Machine:     m.Name,
		Uops:        total,
		BaseSeconds: base,
		AcctSeconds: acct,
		OverheadPct: (acct - base) / base * 100,
	}
}

// Render formats the measurement.
func (r OverheadResult) Render() string {
	var b strings.Builder
	b.WriteString("Accounting overhead (§IV claim: < 1% simulation-time increase)\n\n")
	fmt.Fprintf(&b, "%s on %s, %d uops\n", r.Workload, r.Machine, r.Uops)
	fmt.Fprintf(&b, "  without accounting: %.4fs\n", r.BaseSeconds)
	fmt.Fprintf(&b, "  with multi-stage CPI + FLOPS accounting: %.4fs\n", r.AcctSeconds)
	fmt.Fprintf(&b, "  overhead: %.2f%%\n", r.OverheadPct)
	return b.String()
}
