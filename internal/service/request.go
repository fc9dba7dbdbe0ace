// Package service implements the simd stack-analysis HTTP API: simulation
// requests served from a two-tier content-addressed result cache, with
// singleflight deduplication (concurrent identical requests cost one
// simulation), bounded admission over a runner.Pool (load shedding with
// Retry-After), and stdlib-only Prometheus-text metrics.
package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"perfstacks/internal/config"
	"perfstacks/internal/resultcache"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// Request is the JSON body of POST /v1/simulate. Exactly one of Workload
// (a generator spec) or TracePath (a uop trace file under the server's
// trace directory) selects the input stream.
type Request struct {
	// Machine names the configuration: BDW, KNL or SKX.
	Machine string `json:"machine"`
	// Idealize switches on the paper's idealizations (§IV).
	Idealize *IdealizeSpec `json:"idealize,omitempty"`
	// Workload generates a synthetic SPEC-like trace on the server.
	Workload *WorkloadSpec `json:"workload,omitempty"`
	// TracePath names a trace file relative to the server's -traces dir.
	TracePath string `json:"trace_path,omitempty"`
	// Scheme selects wrong-path accounting: oracle (default), simple or
	// speculative.
	Scheme string `json:"scheme,omitempty"`
	// WrongPath selects the wrong-path pipeline model: none (default) or
	// synth.
	WrongPath string `json:"wrongpath,omitempty"`
	// Stacks lists the outputs to measure: cpi, flops, memdepth,
	// structural, fetch. Empty means ["cpi"].
	Stacks []string `json:"stacks,omitempty"`
	// Warmup runs the first N uops without accounting.
	Warmup uint64 `json:"warmup,omitempty"`
	// SMP, when set, runs the workload as an n-core gang over a shared
	// uncore (one L3 slice pool and one memory) instead of a single core.
	// Generator workloads only: each core runs the profile re-seeded by its
	// thread id, and Workload.Uops is the per-core trace length.
	SMP *SMPSpec `json:"smp,omitempty"`
}

// SMPSpec sizes an SMP gang request.
type SMPSpec struct {
	// Cores is the gang width (2 to maxSMPCores).
	Cores int `json:"cores"`
	// Parallel steps the cores on concurrent goroutines through the
	// epoch-gated shared uncore. Results are byte-identical to the
	// sequential lockstep (sim.TestParallelSMPEquivalence), so this knob
	// trades wall time only and does not enter the cache key.
	Parallel bool `json:"parallel,omitempty"`
	// L3Slices address-hashes the shared L3 into this many slices, each an
	// independent ordering domain with its own memory channel (0 or 1 =
	// monolithic, a power of two otherwise). Unlike Parallel this is a
	// model knob — the partition changes which lines conflict — so it
	// enters the cache key through the canonical machine encoding.
	L3Slices int `json:"l3_slices,omitempty"`
}

// maxSMPCores bounds a gang request: large enough for any socket the paper
// models (26-thread SKX), small enough that a single request cannot ask for
// an unbounded amount of work.
const maxSMPCores = 64

// IdealizeSpec mirrors config.Idealize with wire-stable field names.
type IdealizeSpec struct {
	PerfectICache  bool `json:"perfect_icache,omitempty"`
	PerfectDCache  bool `json:"perfect_dcache,omitempty"`
	PerfectBpred   bool `json:"perfect_bpred,omitempty"`
	SingleCycleALU bool `json:"single_cycle_alu,omitempty"`
}

// WorkloadSpec names a synthetic workload generated server-side.
type WorkloadSpec struct {
	// Profile is a SPEC-like profile name (e.g. "mcf").
	Profile string `json:"profile"`
	// Uops bounds the generated trace length.
	Uops uint64 `json:"uops"`
}

// maxRequestBytes bounds the request body; simulate requests are small.
const maxRequestBytes = 1 << 20

// maxTraceBytes bounds an on-disk trace loaded per request. Loading the
// file into memory before digesting binds the cache key to the exact bytes
// simulated: a file mutated after the digest cannot poison the cache.
const maxTraceBytes = 256 << 20

// plan is a fully resolved, validated request: everything the simulation
// path needs, plus the content-addressed key identifying the result.
type plan struct {
	key      resultcache.Key
	machine  config.Machine
	opts     sim.Options
	workload string
	// mkReader builds a fresh trace reader (called once per simulation,
	// and again per idealization if those are ever added service-side).
	mkReader func() (trace.Reader, error)
	// smpCores, when > 0, runs the request as an SMP gang: mkSMP builds
	// the per-thread readers and mkReader is unused.
	smpCores int
	mkSMP    func(tid int) trace.Reader
	// via records how the flight leader's produce resolved ("peer" when a
	// ring replica served the payload; "" means a local simulation).
	// Written inside the flight, read by the leader after the flight's
	// done channel closes.
	via string
	// wait admits the job with SubmitWait (block for a pool slot) instead
	// of Submit (shed when saturated). Sensitivity plan cells set it: plan
	// admission already happened at the plan level, so a cell queues
	// politely rather than failing the plan halfway.
	wait bool
}

// parseRequest decodes and strictly validates a request body. All errors
// are client errors (400): unknown fields, unknown enum strings, missing or
// contradictory inputs.
func parseRequest(body io.Reader) (*Request, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("%w: decoding request: %v", sim.ErrBadValue, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after request object", sim.ErrBadValue)
	}
	return &req, nil
}

// resolve turns a Request into an executable plan, deriving the cache key
// from the canonical machine and options encodings, the trace identity and
// the result schema version. Any two requests that would measure different
// things get different keys; requests differing only in presentation
// (field order, defaulted enums spelled out) get the same key.
func (s *Server) resolve(req *Request) (*plan, error) {
	machineName := req.Machine
	if machineName == "" {
		machineName = "BDW"
	}
	m, err := config.ByName(machineName)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", sim.ErrBadValue, err)
	}
	if req.Idealize != nil {
		m = m.Apply(config.Idealize{
			PerfectICache:  req.Idealize.PerfectICache,
			PerfectDCache:  req.Idealize.PerfectDCache,
			PerfectBpred:   req.Idealize.PerfectBpred,
			SingleCycleALU: req.Idealize.SingleCycleALU,
		})
	}

	opts := sim.Options{WarmupUops: req.Warmup}
	if opts.Scheme, err = sim.ParseScheme(req.Scheme); err != nil {
		return nil, err
	}
	if opts.WrongPath, err = sim.ParseWrongPathMode(req.WrongPath); err != nil {
		return nil, err
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
			return nil, fmt.Errorf("%w: unknown stack %q (want cpi, flops, memdepth, structural or fetch)", sim.ErrBadValue, st)
		}
	}
	if req.SMP != nil {
		if req.SMP.Cores < 2 || req.SMP.Cores > maxSMPCores {
			return nil, fmt.Errorf("%w: smp.cores must be between 2 and %d", sim.ErrBadValue, maxSMPCores)
		}
		if req.Workload == nil {
			return nil, fmt.Errorf("%w: smp requires a generator workload (a trace file carries no per-thread streams)", sim.ErrBadValue)
		}
		// Parallel stepping is byte-identical by contract, and
		// CanonicalOptions excludes it, so it cannot split the key space.
		opts.Parallel = req.SMP.Parallel
		// The slice count is part of the machine: CanonicalMachine keys it
		// (and validates the power-of-two/channel-shape constraints).
		m.Hierarchy.L3Slices = req.SMP.L3Slices
	}
	if err := sim.ValidateOptions(opts); err != nil {
		return nil, err
	}

	p := &plan{machine: m, opts: opts}
	switch {
	case req.Workload != nil && req.TracePath != "":
		return nil, fmt.Errorf("%w: workload and trace_path are mutually exclusive", sim.ErrBadValue)
	case req.Workload != nil:
		prof, ok := workload.SPECProfile(req.Workload.Profile)
		if !ok {
			return nil, fmt.Errorf("%w: unknown workload profile %q", sim.ErrBadValue, req.Workload.Profile)
		}
		uops := req.Workload.Uops
		if uops == 0 {
			return nil, fmt.Errorf("%w: workload.uops must be > 0", sim.ErrBadValue)
		}
		if req.SMP != nil {
			return s.resolveSMP(p, m, prof, uops, opts, req.SMP.Cores)
		}
		// SimKey is the shared derivation for generator-driven runs, so a
		// simd cache directory is hit-compatible with sweep/experiments.
		if p.key, err = resultcache.SimKey(m, prof, uops, opts); err != nil {
			return nil, err
		}
		p.workload = prof.Name
		p.mkReader = func() (trace.Reader, error) {
			return trace.NewLimit(workload.NewGenerator(prof), uops), nil
		}
		return p, nil
	case req.TracePath == "":
		return nil, fmt.Errorf("%w: request needs a workload or a trace_path", sim.ErrBadValue)
	default:
		if s.traceDir == "" {
			return nil, fmt.Errorf("%w: this server has no trace directory (-traces)", sim.ErrBadValue)
		}
		if !filepath.IsLocal(req.TracePath) {
			return nil, fmt.Errorf("%w: trace_path must be relative and stay inside the trace directory", sim.ErrBadValue)
		}
		path := filepath.Join(s.traceDir, filepath.FromSlash(req.TracePath))
		data, err := readTrace(path)
		if err != nil {
			return nil, err
		}
		// Digest the bytes actually held in memory — the same bytes the
		// simulation will consume — so the key cannot race a file mutation.
		dr := trace.NewDigestReader(bytes.NewReader(data))
		if _, err := io.Copy(io.Discard, dr); err != nil {
			return nil, fmt.Errorf("%w: digesting %s: %v", sim.ErrBadValue, req.TracePath, err)
		}
		sum := dr.Sum()
		if p.key, err = resultcache.RunKey(m, opts, append([]byte("trace-sha256:"), sum[:]...)); err != nil {
			return nil, err
		}
		p.workload = strings.TrimSuffix(filepath.Base(req.TracePath), filepath.Ext(req.TracePath))
		p.mkReader = func() (trace.Reader, error) {
			fr, err := trace.NewFileReader(bytes.NewReader(data))
			if err != nil {
				return nil, fmt.Errorf("%w: opening %s: %v", sim.ErrBadValue, req.TracePath, err)
			}
			return fr, nil
		}
		return p, nil
	}
}

// resolveSMP finishes a gang plan: the key binds the machine, options, the
// base profile, the per-core length AND the core count — a 4-core and an
// 8-core gang of the same workload measure different things — while the
// Parallel knob stays out (byte-identical stepping must share one entry).
func (s *Server) resolveSMP(p *plan, m config.Machine, prof workload.Profile, uops uint64, opts sim.Options, cores int) (*plan, error) {
	tid, err := sim.CanonicalBytes("workload-smp", struct {
		Profile workload.Profile
		Uops    uint64
		Cores   int
	}{prof, uops, cores})
	if err != nil {
		return nil, err
	}
	if p.key, err = resultcache.RunKey(m, opts, tid); err != nil {
		return nil, err
	}
	p.workload = fmt.Sprintf("%s-smp%d", prof.Name, cores)
	p.smpCores = cores
	p.mkSMP = func(tid int) trace.Reader {
		pp := prof
		// Distinct deterministic streams per thread: same program shape,
		// decorrelated addresses and branch outcomes.
		pp.Seed = prof.Seed + uint64(tid)*0x9e3779b97f4a7c15
		return trace.NewLimit(workload.NewGenerator(pp), uops)
	}
	return p, nil
}

// readTrace loads a trace file, size-capped.
func readTrace(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", sim.ErrBadValue, err)
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, maxTraceBytes+1))
	if err != nil {
		return nil, fmt.Errorf("%w: reading trace: %v", sim.ErrBadValue, err)
	}
	if len(data) > maxTraceBytes {
		return nil, fmt.Errorf("%w: trace exceeds %d bytes", sim.ErrBadValue, maxTraceBytes)
	}
	return data, nil
}

// writeError emits the uniform JSON error body.
func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
