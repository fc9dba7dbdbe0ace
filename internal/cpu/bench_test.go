package cpu_test

import (
	"testing"

	"perfstacks/internal/bpred"
	"perfstacks/internal/cache"
	"perfstacks/internal/config"
	"perfstacks/internal/core"
	"perfstacks/internal/cpu"
)

// benchCore builds a warmed-up core streaming independent ALU uops. The
// warm-up steps grow the amortized staging buffers to their steady-state
// capacity so the timed region measures the true per-cycle cost.
func benchCore() *cpu.Core {
	m := config.BDW()
	hier := cache.NewHierarchy(m.Hierarchy)
	c := cpu.New(m.Core, hier, bpred.Perfect{}, linearTrace(1<<15))
	acct := core.NewMultiStageAccountant(core.Options{Width: m.Core.MinWidth()})
	c.Attach(acct)
	for i := 0; i < 1024; i++ {
		c.Step()
	}
	return c
}

// BenchmarkCoreStep is the dynamic witness of the property the hotalloc
// analyzer proves statically: the bare per-cycle Step loop runs at
// 0 allocs/op. Core construction and trace refill happen off the clock.
// (BenchmarkSimulatorThroughput at the repo root measures the same loop
// end-to-end through sim.Run, including amortized setup.)
//
// One op is one Step (one cycle, or one skipped idle window); the uops/s
// metric counts the uops committed inside the timed steps.
func BenchmarkCoreStep(b *testing.B) {
	c := benchCore()
	var uops uint64
	start := c.Stats.Committed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Step() {
			b.StopTimer()
			uops += c.Stats.Committed - start
			c = benchCore()
			start = c.Stats.Committed
			b.StartTimer()
		}
	}
	uops += c.Stats.Committed - start
	b.ReportMetric(float64(uops)/b.Elapsed().Seconds(), "uops/s")
}
