package service

import (
	"context"
	"errors"
	"strings"
	"testing"

	"perfstacks/internal/sim"
)

// fuzzServer builds a Server whose trace directory holds one small trace,
// so trace_path inputs reach the digest and key path.
func fuzzServer(f *testing.F) *Server {
	f.Helper()
	dir := f.TempDir()
	writeTraceFile(f, dir, "small.trc", 200)
	s, err := New(context.Background(), Config{Workers: 1, TraceDir: dir})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	return s
}

// FuzzSimulateRequest: no /v1/simulate body makes parsing or resolution
// panic, and every rejection is a client error (wraps sim.ErrBadValue, the
// 400 class).
func FuzzSimulateRequest(f *testing.F) {
	s := fuzzServer(f)
	for _, seed := range []string{
		`{"machine":"BDW","workload":{"profile":"mcf","uops":5000}}`,
		`{"machine":"KNL","workload":{"profile":"mcf","uops":1},"stacks":["cpi","flops","memdepth","structural","fetch"],"scheme":"speculative","wrongpath":"synth","warmup":10}`,
		`{"machine":"SKX","idealize":{"perfect_icache":true,"perfect_dcache":true,"perfect_bpred":true,"single_cycle_alu":true},"workload":{"profile":"mcf","uops":100}}`,
		`{"machine":"BDW","workload":{"profile":"mcf","uops":4000},"smp":{"cores":4,"parallel":true,"l3_slices":2}}`,
		`{"machine":"BDW","workload":{"profile":"mcf","uops":4000},"smp":{"cores":2,"l3_slices":3}}`,
		`{"machine":"BDW","trace_path":"small.trc"}`,
		`{"machine":"BDW","trace_path":"../etc/passwd"}`,
		`{"machine":"BDW","trace_path":"small.trc","smp":{"cores":2}}`,
		`{"machine":"ZEN"}`,
		`{"stacks":["bogus"]}`,
		`{"machine":"BDW"} {}`,
		`{"unknown":1}`,
		`[]`,
		``,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req, err := parseRequest(strings.NewReader(body))
		if err == nil {
			_, err = s.resolve(req)
		}
		if err != nil && !errors.Is(err, sim.ErrBadValue) {
			t.Fatalf("body %q: error %v does not wrap sim.ErrBadValue", body, err)
		}
	})
}

// FuzzSensitivityRequest: no /v1/sensitivity body makes parsing or plan
// expansion panic, and every rejection is a client error.
func FuzzSensitivityRequest(f *testing.F) {
	s := fuzzServer(f)
	for _, seed := range []string{
		`{"machine":"BDW","workload":{"profile":"mcf","uops":5000}}`,
		`{"machine":"KNL","workload":{"profile":"mcf","uops":5000},"params":["bpred","caches"],"variants":[0.25,4],"no_endpoints":true,"recompute":true}`,
		`{"machine":"SKX","workload":{"profile":"mcf","uops":100},"scheme":"simple","warmup":10,"variants":[1]}`,
		`{"machine":"BDW","workload":{"profile":"mcf","uops":0}}`,
		`{"machine":"BDW","workload":{"profile":"mcf","uops":5000},"params":["nope"]}`,
		`{"machine":"BDW","workload":{"profile":"mcf","uops":5000},"variants":[-1,0]}`,
		`{"machine":"BDW"}`,
		`{"machine":"ZEN","workload":{"profile":"mcf","uops":5000}}`,
		`{"bogus":true}`,
		``,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req, err := parseSensitivityRequest(strings.NewReader(body))
		if err == nil {
			_, err = s.resolveSensitivity(req)
		}
		if err != nil && !errors.Is(err, sim.ErrBadValue) {
			t.Fatalf("body %q: error %v does not wrap sim.ErrBadValue", body, err)
		}
	})
}
