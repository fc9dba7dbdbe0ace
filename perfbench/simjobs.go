package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"perfstacks/internal/config"
	"perfstacks/internal/export"
	"perfstacks/internal/service"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// simJob is one cold simulation of the sim-suite mix.
type simJob struct {
	Name    string
	Label   string // workload label passed to export.EncodeResult
	Machine config.Machine
	Opts    sim.Options
	Uops    uint64 // trace length per core, warm-up included
	Cores   int    // 0: single core; otherwise an SMP gang
	// mk builds a fresh trace for thread tid (always 0 for single-core).
	mk func(tid int) trace.Reader
	// prof is the generator profile of SPEC-like jobs (nil otherwise).
	prof *workload.Profile
}

// Committed is the uop count the job must commit.
func (j *simJob) Committed() uint64 {
	if j.Cores > 0 {
		return j.Uops * uint64(j.Cores)
	}
	return j.Uops
}

// jobFromRequest resolves a simd request into the simulation simd runs for
// it, mirroring service.resolve for the request fields the benchmark uses.
// seed perturbs a generator profile's stream (0 keeps simd's stream, so the
// result is byte-equal to what simd serves for the request).
func jobFromRequest(req service.Request, seed uint64, traceDir string) (simJob, error) {
	name := req.Machine
	if name == "" {
		name = "BDW"
	}
	m, err := config.ByName(name)
	if err != nil {
		return simJob{}, err
	}
	if id := req.Idealize; id != nil {
		m = m.Apply(config.Idealize{PerfectICache: id.PerfectICache, PerfectDCache: id.PerfectDCache,
			PerfectBpred: id.PerfectBpred, SingleCycleALU: id.SingleCycleALU})
	}
	opts := sim.Options{WarmupUops: req.Warmup}
	if opts.Scheme, err = sim.ParseScheme(req.Scheme); err != nil {
		return simJob{}, err
	}
	if opts.WrongPath, err = sim.ParseWrongPathMode(req.WrongPath); err != nil {
		return simJob{}, err
	}
	stacks := req.Stacks
	if len(stacks) == 0 {
		stacks = []string{"cpi"}
	}
	for _, st := range stacks {
		switch st {
		case "cpi":
			opts.CPI = true
		case "flops":
			opts.FLOPS = true
		case "memdepth":
			opts.MemDepth = true
		case "structural":
			opts.Structural = true
		case "fetch":
			opts.Fetch = true
		default:
			return simJob{}, fmt.Errorf("unknown stack %q", st)
		}
	}
	j := simJob{Machine: m, Opts: opts}
	if req.TracePath != "" {
		data, err := os.ReadFile(filepath.Join(traceDir, req.TracePath))
		if err != nil {
			return simJob{}, err
		}
		j.Label = strings.TrimSuffix(filepath.Base(req.TracePath), filepath.Ext(req.TracePath))
		j.Name = j.Label + "/" + m.Name
		fr, err := trace.NewFileReader(bytes.NewReader(data))
		if err != nil {
			return simJob{}, err
		}
		var buf [256]trace.Uop
		for n := fr.ReadBatch(buf[:]); n > 0; n = fr.ReadBatch(buf[:]) {
			j.Uops += uint64(n)
		}
		if err := fr.Err(); err != nil {
			return simJob{}, err
		}
		j.mk = func(int) trace.Reader {
			fr, _ := trace.NewFileReader(bytes.NewReader(data)) // the header was validated above
			return fr
		}
		return j, nil
	}
	if req.Workload == nil {
		return simJob{}, fmt.Errorf("request has neither a workload nor a trace path")
	}
	prof, ok := workload.SPECProfile(req.Workload.Profile)
	if !ok {
		return simJob{}, fmt.Errorf("unknown profile %q", req.Workload.Profile)
	}
	prof.Seed += seed * 0x9e3779b97f4a7c15
	uops := req.Workload.Uops
	j.Label, j.Uops, j.prof = prof.Name, uops, &prof
	j.Name = prof.Name + "/" + m.Name
	if req.SMP != nil {
		j.Cores = req.SMP.Cores
		j.Opts.Parallel = req.SMP.Parallel
		j.Machine.Hierarchy.L3Slices = req.SMP.L3Slices
		j.Label = fmt.Sprintf("%s-smp%d", prof.Name, j.Cores)
		j.Name = j.Label + "/" + m.Name
		j.mk = func(tid int) trace.Reader {
			pp := prof
			pp.Seed = prof.Seed + uint64(tid)*0x9e3779b97f4a7c15
			return trace.NewLimit(workload.NewGenerator(pp), uops)
		}
		return j, nil
	}
	j.mk = func(int) trace.Reader { return trace.NewLimit(workload.NewGenerator(prof), uops) }
	return j, nil
}

// specReq is a generator-workload simd request.
func specReq(profile, machine string, uops uint64, stacks ...string) service.Request {
	return service.Request{Machine: machine, Stacks: stacks,
		Workload: &service.WorkloadSpec{Profile: profile, Uops: uops}}
}

// Job sizes. A suite pass is about a second of simulation on a 2-vCPU
// Xeon, so a 45-second run covers many whole passes.
const (
	specUops = 60_000
	dnnUops  = 60_000
	smpCores = 8
	smpUops  = 12_000 // per core
)

// suiteRequests are sim-suite's single-core SPEC-like jobs, written as the
// simd requests that would run them: profiles of different character
// (memory-bound mcf/lbm, I-cache-bound cactuBSSN, branchy
// deepsjeng/exchange2) on BDW/KNL/SKX with CPI+FLOPS stacks, plus jobs with
// the optional accountants, synthetic wrong path, warm-up and an idealized
// machine.
func suiteRequests() []service.Request {
	spec := specReq("deepsjeng", "SKX", specUops/10, "cpi")
	// The speculative scheme's per-uop counters make this job tens of
	// times slower per uop than the others, so it runs a tenth the length.
	spec.WrongPath, spec.Scheme = "synth", "speculative"
	warm := specReq("lbm", "BDW", specUops, "cpi", "flops")
	warm.Warmup = specUops / 4
	ideal := specReq("mcf", "SKX", specUops, "cpi", "flops")
	ideal.Idealize = &service.IdealizeSpec{PerfectDCache: true, PerfectBpred: true}
	return []service.Request{
		specReq("mcf", "BDW", specUops, "cpi", "flops"),
		specReq("lbm", "KNL", specUops, "cpi", "flops"),
		specReq("cactuBSSN", "SKX", specUops, "cpi", "flops"),
		specReq("deepsjeng", "BDW", specUops, "cpi", "flops"),
		specReq("exchange2", "SKX", specUops, "cpi", "flops"),
		specReq("mcf", "KNL", specUops, "cpi", "memdepth", "structural"),
		specReq("cactuBSSN", "BDW", specUops, "cpi", "fetch"),
		spec, warm, ideal,
	}
}

// simSuite is the fixed sim-suite mix: the suiteRequests jobs, DeepBench
// sgemm/conv on KNL and SKX with CPI+FLOPS stacks, and an 8-core mcf gang
// run sequentially and in parallel. seed perturbs only the trace streams.
func simSuite(seed uint64) []simJob {
	var jobs []simJob
	for _, req := range suiteRequests() {
		j, err := jobFromRequest(req, seed, "")
		if err != nil {
			panic(err) // the mix is fixed at compile time
		}
		jobs = append(jobs, j)
	}
	cpiFlops := sim.Options{CPI: true, FLOPS: true}
	for _, m := range []config.Machine{config.KNL(), config.SKX()} {
		style := workload.StyleKNL
		if m.Name == "SKX" {
			style = workload.StyleSKX
		}
		lanes := m.Core.VectorLanes
		// Fixed kernel shapes: the seed varies only the data streams, so
		// every seed runs the same mix of work.
		gemm := workload.GemmTrain()[2]
		conv := workload.ConvTrain()[6]
		jobs = append(jobs,
			simJob{Name: "sgemm/" + m.Name, Label: "sgemm", Machine: m, Opts: cpiFlops, Uops: dnnUops,
				mk: func(int) trace.Reader {
					return trace.NewLimit(workload.NewGemm(style, gemm, lanes, seed+1, 0), dnnUops)
				}},
			simJob{Name: "conv/" + m.Name, Label: "conv", Machine: m, Opts: cpiFlops, Uops: dnnUops,
				mk: func(int) trace.Reader {
					return trace.NewLimit(workload.NewConv(style, conv, workload.ConvFwd, lanes, seed+1, 0), dnnUops)
				}})
	}
	for _, par := range []bool{false, true} {
		req := specReq("mcf", "BDW", smpUops, "cpi", "flops")
		req.SMP = &service.SMPSpec{Cores: smpCores, Parallel: par}
		j, err := jobFromRequest(req, seed, "")
		if err != nil {
			panic(err)
		}
		j.Name += map[bool]string{false: "/seq", true: "/par"}[par]
		jobs = append(jobs, j)
	}
	return jobs
}

// run simulates the job through the public sim entry points (untraced).
func (j *simJob) run() sim.Result {
	if j.Cores > 0 {
		return foldSMP(sim.RunSMP(j.Machine, j.Cores, j.mk, j.Opts))
	}
	return sim.Run(j.Machine, j.mk(0), j.Opts)
}

// foldSMP folds a gang result into the single-result shape the way simd
// serves gang requests: stacks pass through, counters sum, Cycles is the
// slowest core.
func foldSMP(smp sim.SMPResult) sim.Result {
	res := sim.Result{Machine: smp.Machine, Stacks: smp.Stacks, FLOPS: smp.FLOPS, Err: smp.Err}
	for _, st := range smp.PerCore {
		res.Stats.Cycles = max(res.Stats.Cycles, st.Cycles)
		res.Stats.Committed += st.Committed
		res.Stats.Loads += st.Loads
		res.Stats.Stores += st.Stores
		res.Stats.Branches += st.Branches
		res.Stats.Mispredicts += st.Mispredicts
		res.Stats.WrongPathUops += st.WrongPathUops
		res.Stats.SquashedUops += st.SquashedUops
		res.Stats.VFPUops += st.VFPUops
		res.Stats.FLOPs += st.FLOPs
		res.Stats.BarrierWaits += st.BarrierWaits
		res.Stats.ICacheStallCycles += st.ICacheStallCycles
	}
	return res
}

// checkResult is the per-job output check: a clean run, every requested
// uop committed, and each stage's CPI stack summing to its CPI. A gang's
// stacks are averages over cores whose cycle and instruction counts are
// rounded to integers, so they sum to the CPI only within that rounding.
func checkResult(res *sim.Result, want uint64, averaged bool) error {
	if res.Err != nil {
		return res.Err
	}
	if res.Stats.Committed != want {
		return fmt.Errorf("committed %d uops, want %d", res.Stats.Committed, want)
	}
	if res.Stacks != nil {
		for st := range res.Stacks.Stacks {
			s := &res.Stacks.Stacks[st]
			sum := 0.0
			for _, v := range s.CPIs() {
				sum += v
			}
			cpi := s.TotalCPI()
			tol := 1e-9 * math.Max(1, cpi)
			if averaged && s.Instructions > 0 {
				tol += 2 * (1 + cpi) / float64(s.Instructions)
			}
			if math.Abs(sum-cpi) > tol {
				return fmt.Errorf("stage %d CPI stack sums to %v, CPI is %v", st, sum, cpi)
			}
		}
	}
	return nil
}

// digest folds encoded results into one hex SHA-256, in job order.
func digest(payloads [][]byte) string {
	h := sha256.New()
	for _, p := range payloads {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// encode is export.EncodeResult for a job's result.
func (j *simJob) encode(res *sim.Result) ([]byte, error) {
	return export.EncodeResult(res, j.Label)
}
