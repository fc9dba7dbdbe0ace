package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"perfstacks/internal/sim"
)

// pinnedDigest is the digest of every sim-suite result at defaultSeed. A
// change that alters any simulated byte changes it; update it only with a
// change that means to alter results.
const pinnedDigest = "92a619383047fa40c876b148ad603cec141858685d9fe28d3d3a8dfca61017e5"

// suiteState is sim-suite's prepared input.
type suiteState struct{ jobs []simJob }

// runSimSuite drives sim-suite: a closed batch of cold simulations, one job
// at a time, with no service, cache or HTTP in the path.
func runSimSuite(b *bench) error {
	st, setupS, err := setupMedian(3, func() (*suiteState, error) {
		st := &suiteState{jobs: simSuite(b.seed)}
		// The untimed warm-up is one whole pass, so the process's first
		// (slowest) run of each job is not measured.
		for _, j := range st.jobs {
			res := j.run()
			if err := checkResult(&res, j.Committed(), j.Cores > 0); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", j.Name, err)
			}
		}
		return st, nil
	}, func(*suiteState) {})
	if err != nil {
		return err
	}
	b.set("setup_s", setupS, 3, "suite build + warm-up pass, median of 3")
	if b.traced {
		return simSuiteTraced(b, st)
	}

	// Per pass: committed uops and host time of all jobs (the gangs' uops
	// summed over their cores), and of the single-core and gang jobs apart.
	var allUops float64
	var passRates, passMs, singleRates, smpRates []float64
	var first [][]byte
	passes := 0
	runtime.GC()
	a0 := readAllocs()
	start := time.Now()
	for passes == 0 || time.Since(start) < b.window {
		var payloads [][]byte
		var uops, ns [2]float64 // [single-core, gang]
		for _, j := range st.jobs {
			t0 := time.Now()
			res := j.run()
			d := time.Since(t0)
			// Checks run outside the timed call.
			k := 0
			if j.Cores > 0 {
				k = 1
			}
			uops[k] += float64(j.Committed())
			ns[k] += float64(d)
			p, err := checkedPayload(&j, &res)
			b.op(j.Name, err)
			payloads = append(payloads, p)
		}
		passMs = append(passMs, (ns[0]+ns[1])/1e6)
		allUops += uops[0] + uops[1]
		passRates = append(passRates, (uops[0]+uops[1])/((ns[0]+ns[1])/1e9))
		singleRates = append(singleRates, uops[0]/(ns[0]/1e9))
		smpRates = append(smpRates, uops[1]/(ns[1]/1e9))
		if passes == 0 {
			first = payloads
		} else {
			for i := range payloads {
				if !bytes.Equal(payloads[i], first[i]) {
					b.op(st.jobs[i].Name+" repeat", errors.New("result bytes differ between passes"))
				}
			}
		}
		passes++
	}
	allocs := readAllocs().since(a0)
	if b.seed == defaultSeed {
		var err error
		if d := digest(first); d != pinnedDigest {
			err = fmt.Errorf("result digest %s, pinned %s", d, pinnedDigest)
		}
		b.op("digest", err)
	}
	// Both figures cover the whole mix, gangs included, so a change to any
	// job's speed (single-core or SMP) moves them.
	b.set("throughput_per_s", median(passRates), passes, "median over suite passes of committed uops per host second of job time, all jobs")
	b.set("p50_ms", median(passMs), passes, fmt.Sprintf("host time of one suite pass (the %d jobs' walls, checks excluded), median over passes", len(st.jobs)))
	b.note("sim_uops_per_s=%s (single-core jobs)  smp_uops_per_s=%s (8-core gangs, seq+par), medians over %d passes",
		fmtF(median(singleRates)), fmtF(median(smpRates)), passes)
	b.note("passes=%d jobs/pass=%d allocs/kuop=%s", passes, len(st.jobs), fmtF(float64(allocs.objects)/(allUops/1e3)))
	return nil
}

// checkedPayload checks one job's result and returns its encoding.
func checkedPayload(j *simJob, res *sim.Result) ([]byte, error) {
	if err := checkResult(res, j.Committed(), j.Cores > 0); err != nil {
		return nil, err
	}
	return j.encode(res)
}

// simSuiteTraced is sim-suite's traced run: untraced and traced passes
// alternate (their wall ratio is the tracing overhead, and their result
// bytes must match), then the layer probes run on the suite's inputs.
func simSuiteTraced(b *bench, st *suiteState) error {
	rec := newRecorder(400_000)
	sc := &simCounters{}
	smp := &simCounters{}
	var untraced, traced []float64
	var agg passAgg
	ref := allocsPerKuop(b, st.jobs)
	for round := 0; round < 3; round++ {
		t0 := time.Now()
		for i, j := range st.jobs {
			res := j.run()
			p, err := checkedPayload(&j, &res)
			if err == nil && !bytes.Equal(p, ref[i]) {
				err = errors.New("result bytes differ between passes")
			}
			b.op(j.Name, err)
		}
		untraced = append(untraced, time.Since(t0).Seconds())
		t0 = time.Now()
		out := tracedPass(b, st.jobs, sc, smp, rec, &agg)
		traced = append(traced, time.Since(t0).Seconds())
		for i := range out {
			if !bytes.Equal(out[i], ref[i]) {
				b.op(st.jobs[i].Name+" traced", errors.New("traced result bytes differ from untraced"))
			}
		}
	}
	b.set("bench.trace_overhead_ratio", median(traced)/median(untraced), len(traced),
		fmt.Sprintf("traced ÷ untraced suite-pass wall (%s s / %s s)", fmtF(median(traced)), fmtF(median(untraced))))
	reportSimLayers(b, sc, smp, rec, &agg)
	if err := clusterProbe(b, suiteRequests()); err != nil {
		return err
	}
	return layerProbes(b, st.jobs, nil, rec)
}
