package experiments

import (
	"strings"
	"testing"

	"perfstacks/internal/core"
)

// The experiment tests run at QuickSpec sizing: enough to exercise every
// driver end-to-end and check the paper's structural claims, cheap enough
// for CI. The full-size shapes are validated via cmd/experiments and
// recorded in EXPERIMENTS.md.

func TestTableIStructure(t *testing.T) {
	r := TableI(QuickSpec())
	for _, blk := range []TableIBlock{r.KNL, r.BDW} {
		if len(blk.Rows) != 4 {
			t.Fatalf("%s: %d rows, want 4", blk.Title, len(blk.Rows))
		}
		if blk.Rows[0].CPI <= 0 {
			t.Fatalf("%s: non-positive base CPI", blk.Title)
		}
		// Idealizations never slow the machine down (same trace).
		for _, row := range blk.Rows[1:] {
			if row.Delta < -0.05 {
				t.Errorf("%s %s: idealization slowed execution by %.3f", blk.Title, row.Config, -row.Delta)
			}
		}
		// The combined idealization is at least as good as either single.
		if blk.CombinedDelta+0.05 < blk.Rows[1].Delta || blk.CombinedDelta+0.05 < blk.Rows[2].Delta {
			t.Errorf("%s: combined delta %.3f below a single delta", blk.Title, blk.CombinedDelta)
		}
	}
	if out := r.Render(); !strings.Contains(out, "mcf on KNL") {
		t.Fatal("render missing block titles")
	}
}

func TestFigure1StageOrdering(t *testing.T) {
	r := Figure1(QuickSpec())
	d := r.Stacks.Stack(core.StageDispatch)
	i := r.Stacks.Stack(core.StageIssue)
	c := r.Stacks.Stack(core.StageCommit)
	// Frontend components shrink from dispatch to commit; backend
	// components grow (§III-A). Allow small tolerance for noise.
	const eps = 0.02
	if !(d.CPI(core.CompBpred)+eps >= i.CPI(core.CompBpred) &&
		i.CPI(core.CompBpred)+eps >= c.CPI(core.CompBpred)) {
		t.Errorf("bpred not decreasing: %.3f/%.3f/%.3f",
			d.CPI(core.CompBpred), i.CPI(core.CompBpred), c.CPI(core.CompBpred))
	}
	if !(c.CPI(core.CompDCache)+eps >= i.CPI(core.CompDCache) &&
		i.CPI(core.CompDCache)+eps >= d.CPI(core.CompDCache)) {
		t.Errorf("dcache not increasing: %.3f/%.3f/%.3f",
			d.CPI(core.CompDCache), i.CPI(core.CompDCache), c.CPI(core.CompDCache))
	}
	// Base equal across stages (up to the final-cycle carry truncation).
	if diff := d.CPI(core.CompBase) - c.CPI(core.CompBase); diff > 1e-3 || diff < -1e-3 {
		t.Errorf("base differs: %.4f vs %.4f", d.CPI(core.CompBase), c.CPI(core.CompBase))
	}
	if out := r.Render(); !strings.Contains(out, "dispatch") {
		t.Fatal("render incomplete")
	}
}

func TestFigure3BoundsMostlyHold(t *testing.T) {
	r := Figure3(QuickSpec())
	if len(r.Cases) != 5 {
		t.Fatalf("%d cases, want 5", len(r.Cases))
	}
	within := 0
	total := 0
	for _, c := range r.Cases {
		if c.Real == nil {
			t.Fatalf("%s: missing real stacks", c.Label)
		}
		for _, id := range c.Idealized {
			total++
			if id.InBounds {
				within++
			}
		}
	}
	// The paper: "in most of the cases, the actual performance improvement
	// is within the boundaries". bwaves is the deliberate exception.
	if within*2 < total {
		t.Fatalf("only %d/%d idealizations within bounds", within, total)
	}
	if out := r.Render(); !strings.Contains(out, "povray") {
		t.Fatal("render incomplete")
	}
}

func TestFigure4Shapes(t *testing.T) {
	r := Figure4(QuickSpec())
	if len(r.Suites) != 10 {
		t.Fatalf("%d suite rows, want 10 (5 suites x 2 machines)", len(r.Suites))
	}
	for _, s := range r.Suites {
		// Normalized stacks both sum to 1: the differences must sum to ~0.
		var sum float64
		for c := 0; c < int(numCategories); c++ {
			sum += s.Diff[c]
		}
		if sum > 0.02 || sum < -0.02 {
			t.Errorf("%s/%s: diffs sum to %.3f, want ~0", s.Machine, s.Suite, sum)
		}
		// The FLOPS base is always smaller than the CPI base (§V-B).
		if s.Diff[CatBase] >= 0 {
			t.Errorf("%s/%s: FLOPS base should be below CPI base (diff %.3f)",
				s.Machine, s.Suite, s.Diff[CatBase])
		}
	}
	// KNL sgemm has the bigger base gap and a real memory component; SKX
	// sgemm compensates through dependences instead.
	knl := r.Suite("KNL", "sgemm-train")
	skx := r.Suite("SKX", "sgemm-train")
	if knl == nil || skx == nil {
		t.Fatal("missing sgemm-train rows")
	}
	if !(knl.Diff[CatBase] < skx.Diff[CatBase]) {
		t.Errorf("KNL base gap %.3f should exceed SKX %.3f", knl.Diff[CatBase], skx.Diff[CatBase])
	}
	if !(knl.Diff[CatMemory] > skx.Diff[CatMemory]+0.05) {
		t.Errorf("KNL sgemm memory diff %.3f should exceed SKX %.3f",
			knl.Diff[CatMemory], skx.Diff[CatMemory])
	}
	if skx.Diff[CatDepend] <= 0 {
		t.Errorf("SKX sgemm should compensate via dependences, got %.3f", skx.Diff[CatDepend])
	}
	if out := r.Render(); !strings.Contains(out, "sgemm-train") {
		t.Fatal("render incomplete")
	}
}

func TestFigure5UnschedAndShift(t *testing.T) {
	r := Figure5(QuickSpec())
	// IPC stack heights are the max IPC.
	var h float64
	for c := core.Component(0); c < core.NumComponents; c++ {
		h += r.Real.IPC[c]
	}
	if h < r.Real.MaxIPC-0.01 || h > r.Real.MaxIPC+0.01 {
		t.Fatalf("IPC stack height %.3f, want %.0f", h, r.Real.MaxIPC)
	}
	// FLOPS efficiency is far below IPC efficiency (the paper's point).
	ipcEff := r.Real.AchievedIPC / r.Real.MaxIPC
	flopsEff := r.Real.FLOPS.Normalized(core.FBase)
	if flopsEff >= ipcEff {
		t.Fatalf("FLOPS efficiency %.2f should be below IPC efficiency %.2f", flopsEff, ipcEff)
	}
	// Perfect D-cache removes the FLOPS memory component.
	if r.PerfectD.FLOPS.Normalized(core.FMem) > 0.01 {
		t.Fatal("perfect D$ should erase the FLOPS memory component")
	}
	if out := r.Render(); !strings.Contains(out, "perfect Dcache") {
		t.Fatal("render incomplete")
	}
}

func TestWrongPathSchemesAgreeAtCommit(t *testing.T) {
	r := WrongPath(QuickSpec())
	if len(r.Schemes) != 3 {
		t.Fatalf("%d schemes, want 3", len(r.Schemes))
	}
	oracle := r.Scheme(core.WrongPathOracle)
	simple := r.Scheme(core.WrongPathSimple)
	spec := r.Scheme(core.WrongPathSpeculative)
	if oracle == nil || simple == nil || spec == nil {
		t.Fatal("missing schemes")
	}
	// Commit-stage accounting never observes wrong-path uops: all schemes
	// must agree exactly there.
	for c := core.Component(0); c < core.NumComponents; c++ {
		o := oracle.Stack(core.StageCommit).Comp[c]
		s := simple.Stack(core.StageCommit).Comp[c]
		p := spec.Stack(core.StageCommit).Comp[c]
		if o != s || o != p {
			t.Fatalf("commit %s differs across schemes: %.3f/%.3f/%.3f", c, o, s, p)
		}
	}
	// All schemes keep the stack-sum invariant at dispatch.
	for _, sc := range r.Schemes {
		d := sc.Stacks.Stack(core.StageDispatch)
		if d.Sum() < float64(d.Cycles)-1 || d.Sum() > float64(d.Cycles)+1 {
			t.Fatalf("%v dispatch sum %.1f vs cycles %d", sc.Scheme, d.Sum(), d.Cycles)
		}
	}
	// Speculative counters approximate the oracle much better than the
	// simple correction at dispatch (the §III-B claim).
	oB := oracle.Stack(core.StageDispatch).CPI(core.CompBpred)
	sB := simple.Stack(core.StageDispatch).CPI(core.CompBpred)
	pB := spec.Stack(core.StageDispatch).CPI(core.CompBpred)
	if absf(pB-oB) > absf(sB-oB)+0.01 {
		t.Fatalf("speculative bpred %.3f further from oracle %.3f than simple %.3f", pB, oB, sB)
	}
	if out := r.Render(); !strings.Contains(out, "oracle") {
		t.Fatal("render incomplete")
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestOverheadMeasurement(t *testing.T) {
	r := Overhead(QuickSpec(), 2)
	if r.BaseSeconds <= 0 || r.AcctSeconds <= 0 {
		t.Fatal("overhead timing not measured")
	}
	t.Logf("overhead %.1f%% (chunk-pair ratio quartiles %.3f-%.3f over %d samples)", r.OverheadPct, r.RatioQ1, r.RatioQ3, r.Samples)
	// Generous bound: accounting must not meaningfully slow simulation
	// (the paper claims <1% on Sniper; allow scheduler noise here).
	if r.OverheadPct > 25 {
		t.Fatalf("accounting overhead %.1f%% is excessive", r.OverheadPct)
	}
	if out := r.Render(); !strings.Contains(out, "overhead") {
		t.Fatal("render incomplete")
	}
}

func TestRenderHelpers(t *testing.T) {
	r := Figure1(QuickSpec())
	if RenderMultiStack(r.Stacks) == "" || RenderStackTable(r.Stacks) == "" {
		t.Fatal("render helpers returned nothing")
	}
}

func TestFigure2MultiStageWins(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 2 sweeps 36 benchmarks x 2 machines")
	}
	r := Figure2(QuickSpec())
	for _, m := range []Figure2Machine{r.BDW, r.KNL} {
		multi := m.MeanAbsMulti()
		for _, st := range core.Stages() {
			if single := m.MeanAbsStage(st); multi > single+1e-9 {
				t.Errorf("%s: multi-stage error %.4f exceeds %s stack error %.4f",
					m.Machine, multi, st, single)
			}
		}
		for _, e := range m.Components {
			if e.Component == core.CompBpred && e.N >= 2 {
				// The paper: bpred multi-stage error reduces to ~0.
				box := 0.0
				for _, v := range e.Multi {
					box += absf(v)
				}
				if box/float64(len(e.Multi)) > 0.05 {
					t.Errorf("%s: bpred multi error %.4f, want ~0", m.Machine, box/float64(len(e.Multi)))
				}
			}
		}
	}
	if out := r.Render(); !strings.Contains(out, "multi") {
		t.Fatal("render incomplete")
	}
}
