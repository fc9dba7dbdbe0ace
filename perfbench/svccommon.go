package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"perfstacks/internal/service"
)

// profiles and machines the service workloads draw their requests from.
var (
	svcProfiles = []string{"mcf", "lbm", "cactuBSSN", "deepsjeng", "exchange2", "omnetpp", "leela", "namd"}
	svcMachines = []string{"BDW", "KNL", "SKX"}
	svcStacks   = [][]string{{"cpi"}, {"cpi", "flops"}, {"cpi", "memdepth"}}
)

// keySet returns n distinct generator requests and one 4-core gang. Key k
// takes its stacks, machine and profile from fixed cycles (k mod 3, k/3 mod
// 3, k/9 mod 8), so the set's mix, and with it the set-up cost and the
// kind of payload at each popularity rank, is the same for every seed
// (with seeded kinds, the same seeds read slow set-ups in two sets of ten
// runs). rng deals out the trace lengths, n evenly spaced values in
// [lo, lo+span), which also keeps every key distinct.
func keySet(rng *rand.Rand, n int, lo, span int) []service.Request {
	out := make([]service.Request, 0, n+1)
	for k, p := range rng.Perm(n) {
		out = append(out, specReq(svcProfiles[k/9%len(svcProfiles)], svcMachines[k/3%len(svcMachines)],
			uint64(lo+p*span/n), svcStacks[k%len(svcStacks)]...))
	}
	gang := specReq("mcf", "BDW", 4000, "cpi", "flops")
	gang.SMP = &service.SMPSpec{Cores: 4}
	return append(out, gang)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // requests are plain structs
	}
	return b
}

// warmUp is the untimed warm-up window: about a second of closed-loop
// hits, so connections, buffers and the heap reach steady state first.
func warmUp(ctx context.Context, r *svcRing, events func(int) func(int) event, conns int) {
	for t0 := time.Now(); time.Since(t0) < time.Second; {
		runTraffic(ctx, r, nil, make([]time.Duration, 1000), conns, events(1000))
	}
}

// okErr turns a check outcome into an op error.
func okErr(ok bool) error {
	if ok {
		return nil
	}
	return errCheck
}

var errCheck = errors.New("request failed or returned a payload other than the one stored for its key")

// overheadRatio runs fixed work untraced and traced, alternating three
// times, and reports the ratio of their median walls.
func overheadRatio(b *bench, run func(traced bool) time.Duration) {
	var u, t []float64
	for i := 0; i < 3; i++ {
		u = append(u, run(false).Seconds())
		t = append(t, run(true).Seconds())
	}
	b.set("bench.trace_overhead_ratio", median(t)/median(u), len(t),
		fmt.Sprintf("traced ÷ untraced wall of the same work (%s s / %s s)", fmtF(median(t)), fmtF(median(u))))
}

// simAndProbeLayers measures the simulator layers on the simulations behind
// a service workload's requests (simd's own streams, so each traced result
// must equal the payload simd served) and runs the layer probes.
func simAndProbeLayers(b *bench, reqs []service.Request, payloads [][]byte, traceDir string, traceFiles []string, rec *recorder) error {
	var jobs []simJob
	var want [][]byte
	for i, r := range reqs {
		j, err := jobFromRequest(r, 0, traceDir)
		if err != nil {
			return err
		}
		jobs = append(jobs, j)
		want = append(want, payloads[i])
		if j.Cores > 0 {
			par := j
			par.Opts.Parallel = true
			jobs = append(jobs, par)
			want = append(want, payloads[i])
		}
	}
	allocsPerKuop(b, jobs)
	sc, smp := &simCounters{}, &simCounters{}
	var agg passAgg
	for i, p := range tracedPass(b, jobs, sc, smp, rec, &agg) {
		if p != nil && string(p) != string(want[i]) {
			b.op(jobs[i].Name+" traced", fmt.Errorf("traced result differs from the payload simd served"))
		}
	}
	reportSimLayers(b, sc, smp, rec, &agg)
	return layerProbes(b, jobs, traceFiles, rec)
}

// clusterProbe gives sim-suite, which has no HTTP traffic of its own, its
// serving-layer metrics: it starts a two-node probe ring, sends reqs cold
// to node 0, then runs a traced open loop of them as warm keys on both
// nodes (node 1's misses go to the owning peer) and measures the peer path.
func clusterProbe(b *bench, reqs []service.Request) error {
	ctx := context.Background()
	rec := newRecorder(100_000)
	r, err := startRing(2, service.Config{Workers: 1, QueueDepth: 64, CacheDir: b.dir + "/probe", Log: discardLog}, 2, rec)
	if err != nil {
		return err
	}
	defer r.close()
	var bodies [][]byte
	for _, q := range reqs {
		bodies = append(bodies, mustJSON(q))
	}
	var payloads [][]byte
	var keys []string
	for _, body := range bodies {
		rep, err := r.simulate(ctx, 0, body, 0)
		b.op("probe cold", err)
		payloads = append(payloads, rep.Body)
		keys = append(keys, rep.Key)
	}
	rng := rand.New(rand.NewSource(int64(b.seed) + 3))
	due := poissonSchedule(rng, 500, 2*time.Second)
	evs := make([]event, len(due))
	for i := range evs {
		k := rng.Intn(len(bodies))
		evs[i] = event{node: rng.Intn(2), body: bodies[k], kind: kindHit, want: payloads[k]}
	}
	base, err := r.scrape(ctx)
	if err != nil {
		return err
	}
	r.setTracing(true)
	g := startGauges(ctx, r, 200*time.Millisecond)
	a0 := readAllocs()
	outs := runTraffic(ctx, r, rec, due, 2, func(i int) event { return evs[i] }).outs
	allocs := readAllocs().since(a0)
	g.finish()
	for _, o := range outs {
		b.op("probe hit", okErr(o.OK))
	}
	final, err := r.scrape(ctx)
	if err != nil {
		return err
	}
	servingLayers(b, r, outs, allocs, g, base, final)
	return peerGets(ctx, b, r, keys)
}
