package cpu_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"perfstacks/internal/bpred"
	"perfstacks/internal/cache"
	"perfstacks/internal/config"
	"perfstacks/internal/core"
	"perfstacks/internal/cpu"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// sampleHasher folds every field of every emitted CycleSample into a
// SHA-256, so a golden over it pins the full per-cycle signal stream the
// accountants consume — including fields no shipped accountant reads in a
// given configuration.
type sampleHasher struct {
	h   hash.Hash
	buf []byte
	n   int

	// Coverage counters: samples carrying each issue-stage signal.
	memOrder, portBlocked, missDepth, oldestVFP int
}

func newSampleHasher() *sampleHasher { return &sampleHasher{h: sha256.New()} }

func (sh *sampleHasher) Cycle(s *core.CycleSample) {
	b := sh.buf[:0]
	i64 := func(v int64) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	flag := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	i64(s.Cycle)
	i64(s.Repeat)
	flag(s.Unsched)
	i64(int64(s.FetchN))
	flag(s.FetchQueueFull)
	b = append(b, byte(s.FetchCause))
	i64(int64(s.DispatchN))
	i64(int64(s.DispatchWrongN))
	flag(s.FEEmpty)
	b = append(b, byte(s.FECause))
	flag(s.WrongPath)
	flag(s.ROBFull)
	flag(s.RSFull)
	b = append(b, byte(s.ROBHeadClass))
	flag(s.ROBHeadNotDone)
	b = append(b, s.ROBHeadMissDepth)
	u64(s.DispatchYoungest)
	i64(int64(s.IssueN))
	i64(int64(s.IssueWrongN))
	flag(s.RSEmpty)
	b = append(b, byte(s.FirstNonReadyClass))
	b = append(b, s.FirstNonReadyMissDepth)
	flag(s.IssueBlockedPort)
	flag(s.IssueBlockedMemOrder)
	u64(s.IssueYoungest)
	i64(int64(s.CommitN))
	flag(s.ROBEmpty)
	flag(s.HasCommit)
	u64(s.CommitThrough)
	flag(s.HasSquash)
	u64(s.SquashAfter)
	i64(int64(s.VFPIssued))
	i64(int64(s.VFPActiveLanes))
	i64(int64(s.VFPFlops))
	flag(s.VFPInRS)
	i64(int64(s.VUNonVFP))
	b = append(b, byte(s.OldestVFPClass))
	flag(s.OldestVFPWaitsLoad)
	sh.h.Write(b)
	sh.buf = b
	sh.n++
	count := func(c *int, v bool) {
		if v {
			*c++
		}
	}
	count(&sh.memOrder, s.IssueBlockedMemOrder)
	count(&sh.portBlocked, s.IssueBlockedPort)
	count(&sh.missDepth, s.FirstNonReadyMissDepth > 0)
	count(&sh.oldestVFP, s.OldestVFPClass != core.ProdNone)
}

func (sh *sampleHasher) sum() string { return hex.EncodeToString(sh.h.Sum(nil)) }

// TestCycleSampleGolden pins the complete per-cycle CycleSample stream of
// four runs chosen to exercise the issue stage's accounting signals:
// memory-bound mcf on BDW (Table II's first-non-ready class and miss depth,
// memory-order blocked loads), lbm on BDW (VFP uops waiting behind memory
// misses, often while no RS entry is ready), VFP-heavy sgemm on SKX (Table
// III's oldest waiting VFP class, VFPInRS, port-blocked issue) and branchy
// deepsjeng on SKX with synthesized wrong-path uops (wrong-path issue,
// squashes and sequence-number reuse), mcf on SKX (high reservation-station
// occupancy) and a VFP-heavy convolution on KNL (128-slot ROB ring, a
// different port mix). Each runs with idle-window skipping on and off; the
// two streams differ only in how idle windows are batched (Repeat).
//
// The first four digests were produced by the simulator before the issue
// stage's readiness memos existed, the last two before the issue stage
// moved to ROB-slot bitsets. A mismatch means the pipeline's per-cycle
// signals changed; that is never fixed by regenerating the constants.
func TestCycleSampleGolden(t *testing.T) {
	mcf, _ := workload.SPECProfile("mcf")
	lbm, _ := workload.SPECProfile("lbm")
	deepsjeng, _ := workload.SPECProfile("deepsjeng")
	cases := []struct {
		name      string
		m         config.Machine
		wrongPath cpu.WrongPathMode
		tr        func() trace.Reader
		covered   func(*sampleHasher, *cpu.Stats) bool
		skip      string
		noSkip    string
	}{
		{
			name: "mcf/BDW", m: config.BDW(),
			tr:      func() trace.Reader { return trace.NewLimit(workload.NewGenerator(mcf), 60_000) },
			covered: func(sh *sampleHasher, _ *cpu.Stats) bool { return sh.memOrder > 0 && sh.missDepth > 0 },
			skip:    "ef336d79dbe86074a88ed0d9d746fccd912e72e40e9787eea08367de9a4d6e2b",
			noSkip:  "42f39af5aa6f64d22aa5fe5d18f501ac2a568c1928ed848b460c19437dc58bd0",
		},
		{
			name: "lbm/BDW", m: config.BDW(),
			tr:      func() trace.Reader { return trace.NewLimit(workload.NewGenerator(lbm), 40_000) },
			covered: func(sh *sampleHasher, _ *cpu.Stats) bool { return sh.oldestVFP > 0 && sh.missDepth > 0 },
			skip:    "0e05168d00a28b1aeb058b40c7b20e545220bd092599d044e294646e0676a729",
			noSkip:  "4d6a40ecc5a30d494d4f58d528b646968fac8c2764fbe9fe2266527f30714015",
		},
		{
			name: "sgemm/SKX", m: config.SKX(),
			tr: func() trace.Reader {
				return trace.NewLimit(workload.NewGemm(workload.StyleSKX, workload.GemmTrain()[2],
					config.SKX().Core.VectorLanes, 1, 0), 60_000)
			},
			covered: func(sh *sampleHasher, _ *cpu.Stats) bool { return sh.oldestVFP > 0 && sh.portBlocked > 0 },
			skip:    "01d9ffc2394a9f655bcf1c965f7b2bf7ad36ef3d915d3b32c66ae3b6542b4281",
			noSkip:  "14278164deed2f77fa273d7cdc79c8eb99e0e2ac641ea7576f73bf9a7652235f",
		},
		{
			name: "deepsjeng/SKX/synth", m: config.SKX(), wrongPath: cpu.WrongPathSynth,
			tr:      func() trace.Reader { return trace.NewLimit(workload.NewGenerator(deepsjeng), 40_000) },
			covered: func(_ *sampleHasher, st *cpu.Stats) bool { return st.WrongPathUops > 0 && st.SquashedUops > 0 },
			skip:    "ce1b84f367b117712340a79c2c19dd8be93040120ed267f71e5d6ec8ba2dc67b",
			noSkip:  "a3f231e0e1344782287686b8c96ec3d4386ed97525aca56caacada9cd9767859",
		},
		{
			name: "mcf/SKX", m: config.SKX(),
			tr:      func() trace.Reader { return trace.NewLimit(workload.NewGenerator(mcf), 60_000) },
			covered: func(sh *sampleHasher, _ *cpu.Stats) bool { return sh.memOrder > 0 && sh.missDepth > 0 },
			skip:    "711147a303137ee924799a70ff7f149c7daba3bc26377f6434be47b750b86a00",
			noSkip:  "a709b0f9f22c737e224961fac0ceddbe371d4c611bab969af71b0696e858ca21",
		},
		{
			name: "conv/KNL", m: config.KNL(),
			tr: func() trace.Reader {
				return trace.NewLimit(workload.NewConv(workload.StyleKNL, workload.ConvTrain()[6],
					workload.ConvFwd, config.KNL().Core.VectorLanes, 1, 0), 60_000)
			},
			covered: func(sh *sampleHasher, _ *cpu.Stats) bool { return sh.oldestVFP > 0 && sh.portBlocked > 0 },
			skip:    "acefbb24d3baf8311d362273edf1be171cbf94fe6b63838c0ca37057deeba7ba",
			noSkip:  "a01b9ac9bbb3120be52825d5030aebd984c13f2f610a3efa3eb34f5de0346a55",
		},
	}
	for _, tc := range cases {
		for _, noSkip := range []bool{false, true} {
			p := tc.m.Core
			p.WrongPath = tc.wrongPath
			c := cpu.New(p, cache.NewHierarchy(tc.m.Hierarchy), bpred.NewTournament(tc.m.Bpred), tc.tr())
			c.SetNoSkip(noSkip)
			sh := newSampleHasher()
			c.Attach(sh)
			st := c.Run()
			if !tc.covered(sh, &st) {
				t.Errorf("%s noSkip=%v: run does not exercise its target signals (%d mem-order, %d port-blocked, %d miss-depth, %d oldest-VFP samples, %d wrong-path uops)",
					tc.name, noSkip, sh.memOrder, sh.portBlocked, sh.missDepth, sh.oldestVFP, st.WrongPathUops)
			}
			want := tc.skip
			if noSkip {
				want = tc.noSkip
			}
			if got := sh.sum(); got != want {
				t.Errorf("%s noSkip=%v: sample stream digest %s, want %s", tc.name, noSkip, got, want)
			}
		}
	}
}
