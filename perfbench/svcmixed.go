package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"perfstacks/internal/sensitivity"
	"perfstacks/internal/service"
	"perfstacks/internal/workload"
)

// svc-mixed's traffic. These values are assumptions, not measurements of
// user traffic (the repository holds no traffic description); README.md
// gives the reasoning behind each and what the traced run measured of them.
const (
	mixedRate      = 250.0 // open-loop requests per second
	mixedConns     = 16    // connections, enough that a slow miss never holds up the schedule
	mixedWarmKeys  = 96
	mixedZipfS     = 1.1
	mixedMissShare = 0.06
	mixedPairShare = 0.02 // pairs of simultaneous identical cold requests
	mixedTraces    = 8
	mixedTraceUops = 3_500
	mixedMemBytes  = 160 << 10 // per node: half the ~320 KiB warm working set
	mixedPlanAt    = 0.25      // share of the open-loop phase before the plan is sent
	// The open-loop phase takes this share of the window; the closed-loop
	// capacity phase takes the rest, in batches of mixedBatch requests.
	mixedOpenShare = 2.0 / 3
	mixedBatch     = 2000
)

// mixedState is svc-mixed's prepared ring, trace files and warm keys.
type mixedState struct {
	ring       *svcRing
	dir        string
	traceDir   string
	traceFiles []string
	reqs       []service.Request
	bodies     [][]byte
	payloads   [][]byte
	keys       []string
	rec        *recorder
}

// setupMixed writes the trace files, starts the two-node ring (each node
// with a disk tier, a memory tier smaller than the warm set, and one
// simulation worker, so total workers ≤ nproc) and pre-warms the keys.
func setupMixed(b *bench, attempt int, rec *recorder) (*mixedState, error) {
	st := &mixedState{dir: filepath.Join(b.dir, fmt.Sprintf("mixed%d", attempt)), rec: rec}
	st.traceDir = filepath.Join(st.dir, "traces")
	if err := os.MkdirAll(st.traceDir, 0o755); err != nil {
		return nil, err
	}
	for i := 0; i < mixedTraces; i++ {
		prof, _ := workload.SPECProfile(svcProfiles[i%len(svcProfiles)])
		prof.Seed += (b.seed + uint64(i)) * 0x9e3779b97f4a7c15
		name := fmt.Sprintf("t%d-%s.trace", i, prof.Name)
		if err := writeTraceFile(filepath.Join(st.traceDir, name), workload.NewGenerator(prof), mixedTraceUops); err != nil {
			return nil, err
		}
		st.traceFiles = append(st.traceFiles, name)
	}
	var err error
	st.ring, err = startRing(2, service.Config{Workers: 1, QueueDepth: 256, MaxPlans: 2,
		MemCacheBytes: mixedMemBytes, CacheDir: filepath.Join(st.dir, "cache"), TraceDir: st.traceDir, Log: discardLog},
		mixedConns, rec)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(b.seed)))
	st.reqs = keySet(rng, mixedWarmKeys, 6_000, 6_000)
	for _, r := range st.reqs {
		st.bodies = append(st.bodies, mustJSON(r))
	}
	if st.payloads, st.keys, err = prewarm(context.Background(), st.ring, st.bodies, 2); err != nil {
		st.ring.close()
		return nil, err
	}
	return st, nil
}

// mixedTraffic is one phase's schedule: the events, their due offsets,
// the cold requests they carry, and the plan (open-loop phases only).
type mixedTraffic struct {
	events []event
	due    []time.Duration
	misses []service.Request
	plan   service.SensitivityRequest
}

// mixGen draws svc-mixed's traffic from rng: Zipf-skewed warm keys on a
// random node, cold generator and trace-file misses, and pairs of
// identical cold requests sent together. Every cold request it draws is a
// key no earlier draw of the run used.
type mixGen struct {
	rng   *rand.Rand
	st    *mixedState
	zipf  *rand.Zipf
	start int // seed-chosen offset into the cold-request grid
	cold  int // cold requests drawn so far
}

func newMixGen(rng *rand.Rand, st *mixedState) *mixGen {
	return &mixGen{rng: rng, st: st, zipf: rand.NewZipf(rng, mixedZipfS, 1, uint64(len(st.bodies)-1)), start: rng.Intn(1000)}
}

// coldReq is the next cold request. Every fourth is a trace-file request
// walking file × machine × stacks, then the same with a longer warm-up;
// the rest walk a grid of profile × machine × stacks × 500 trace lengths
// (36,000 keys), so every one is distinct and all are about the same size.
func (g *mixGen) coldReq() service.Request {
	n := g.start + g.cold
	g.cold++
	if n%4 == 3 {
		c, nf, nm := n/4, len(g.st.traceFiles), len(svcMachines)
		combos := nf * nm * len(svcStacks)
		return service.Request{TracePath: g.st.traceFiles[c%nf], Machine: svcMachines[c/nf%nm],
			Stacks: svcStacks[c/nf/nm%len(svcStacks)], Warmup: uint64(64 * (c / combos))}
	}
	c := n / 500
	return specReq(svcProfiles[c%len(svcProfiles)], svcMachines[c/len(svcProfiles)%len(svcMachines)],
		uint64(3_000+n%500), svcStacks[c/len(svcProfiles)/len(svcMachines)%len(svcStacks)]...)
}

// add appends one arrival due at offset at: a warm key, a cold request, or
// a pair of identical cold requests.
func (g *mixGen) add(t *mixedTraffic, at time.Duration) {
	node := g.rng.Intn(2)
	u := g.rng.Float64()
	if u >= mixedPairShare+mixedMissShare {
		k := int(g.zipf.Uint64())
		t.events = append(t.events, event{node: node, body: g.st.bodies[k], kind: kindHit, want: g.st.payloads[k]})
		t.due = append(t.due, at)
		return
	}
	req := g.coldReq()
	t.misses = append(t.misses, req)
	ev := event{node: node, body: mustJSON(req), kind: kindMiss, miss: len(t.misses) - 1}
	copies := 1
	if u < mixedPairShare {
		copies = 2
	}
	for k := 0; k < copies; k++ {
		t.events = append(t.events, ev)
		t.due = append(t.due, at)
	}
}

// open draws an open-loop phase of length d at mixedRate, and its plan.
func (g *mixGen) open(d time.Duration) mixedTraffic {
	var t mixedTraffic
	for _, at := range poissonSchedule(g.rng, mixedRate, d) {
		g.add(&t, at)
	}
	t.plan = service.SensitivityRequest{Machine: svcMachines[g.rng.Intn(len(svcMachines))],
		Workload: &service.WorkloadSpec{Profile: svcProfiles[g.rng.Intn(len(svcProfiles))], Uops: 2_000},
		Params:   []string{"widths", "queues"}}
	return t
}

// closed draws n arrivals all due at once: sent over a fixed number of
// connections, they form a closed loop.
func (g *mixGen) closed(n int) mixedTraffic {
	var t mixedTraffic
	for i := 0; i < n; i++ {
		g.add(&t, 0)
	}
	return t
}

// mixedResult is what an open-loop phase measured.
type mixedResult struct {
	tr     *traffic
	planS  float64
	plan   []byte
	allocs allocCounters
}

// runMixed sends an open-loop phase of length window, with the plan
// started part-way in.
func runMixed(ctx context.Context, st *mixedState, t mixedTraffic, window time.Duration, rec *recorder) (mixedResult, error) {
	var res mixedResult
	type planDone struct {
		body []byte
		d    time.Duration
		err  error
	}
	done := make(chan planDone, 1)
	go func() {
		time.Sleep(time.Duration(mixedPlanAt * float64(window)))
		t0 := time.Now()
		rep, err := st.ring.do(ctx, http.MethodPost, st.ring.nodes[0].url+"/v1/sensitivity", mustJSON(t.plan), 0, false)
		if err == nil && rep.Code != http.StatusOK {
			err = fmt.Errorf("sensitivity status %d: %s", rep.Code, bytes.TrimSpace(rep.Body))
		}
		done <- planDone{rep.Body, time.Since(t0), err}
	}()
	a0 := readAllocs()
	res.tr = runTraffic(ctx, st.ring, rec, t.due, mixedConns, func(i int) event { return t.events[i] })
	res.allocs = readAllocs().since(a0)
	p := <-done
	res.plan, res.planS = p.body, p.d.Seconds()
	return res, p.err
}

// checkMixed checks every reply of a phase outside its timed run: hits
// were compared inline; each cold reply must equal a direct sim.Run +
// export.EncodeResult of its request. The direct runs share the host's
// CPUs so the checks of a busy phase stay short. They allocate fast, and
// with the default heap goal their garbage set the process's peak RSS
// (31–41 MiB against 26 MiB for the traffic); a tight goal while they run
// keeps max_rss_mb a figure of the ring, not of the checks.
func checkMixed(b *bench, st *mixedState, t mixedTraffic, tr *traffic) error {
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	want := make([][]byte, len(t.misses))
	errs := make([]error, len(t.misses))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range t.misses {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			j, err := jobFromRequest(t.misses[i], 0, st.traceDir)
			if err == nil {
				r := j.run()
				want[i], err = checkedPayload(&j, &r)
			}
			if err != nil {
				errs[i] = fmt.Errorf("direct run of cold request %s: %w", mustJSON(t.misses[i]), err)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i, o := range tr.outs {
		ev := &t.events[i]
		if ev.kind == kindHit {
			b.op("hit", okErr(o.OK))
			continue
		}
		err := okErr(o.OK)
		if err == nil && !bytes.Equal(tr.cold[i], want[ev.miss]) {
			err = fmt.Errorf("cold reply differs from a direct simulation of %s", ev.body)
		}
		b.op("miss", err)
	}
	return nil
}

// checkPlan rebuilds the plan's report in-process and compares it with the
// served report, source attribution cleared on both sides.
func checkPlan(ctx context.Context, req service.SensitivityRequest, served []byte) error {
	j, err := jobFromRequest(specReq(req.Workload.Profile, req.Machine, req.Workload.Uops), 0, "")
	if err != nil {
		return err
	}
	p, err := sensitivity.NewPlan(j.Machine, *j.prof, j.Uops, j.Opts, sensitivity.PlanOptions{Params: req.Params})
	if err != nil {
		return err
	}
	rep, err := (&sensitivity.Orchestrator{Run: sensitivity.LocalRunner(nil, nil), Concurrency: 1}).Execute(ctx, p)
	if err != nil {
		return err
	}
	var got sensitivity.Report
	if err := json.Unmarshal(served, &got); err != nil {
		return fmt.Errorf("served plan report: %w", err)
	}
	norm := func(r *sensitivity.Report) []byte {
		for i := range r.Cells {
			r.Cells[i].Source = ""
		}
		r.Summary = sensitivity.Summary{Cells: r.Summary.Cells}
		return mustJSON(r)
	}
	if !bytes.Equal(norm(&got), norm(rep)) {
		return fmt.Errorf("served plan report differs from the in-process report")
	}
	return nil
}

// runSvcMixed drives svc-mixed against a two-node ring: Zipf-skewed warm
// keys (served from memory, disk or the owning peer), cold misses
// (generator and trace-file requests, stored to memory and disk and
// offered to their owner), simultaneous identical cold pairs
// (singleflight). An open loop at one fixed rate, with one cold
// sensitivity plan, gives the warm-key latency; a closed loop of the same
// mix gives the ring's capacity.
func runSvcMixed(b *bench) error {
	ctx := context.Background()
	var rec *recorder
	if b.traced {
		rec = newRecorder(400_000)
	}
	attempt := 0
	st, setupS, err := setupMedian(3, func() (*mixedState, error) {
		attempt++
		return setupMixed(b, attempt, rec)
	}, func(st *mixedState) { st.ring.close() })
	if err != nil {
		return err
	}
	defer st.ring.close()
	b.set("setup_s", setupS, 3, "trace files + two-node ring + warm-key pre-warm, median of 3")

	hitRng := rand.New(rand.NewSource(int64(b.seed) + 1))
	hits := func(n int) func(int) event {
		keys := make([]int32, n)
		for i := range keys {
			keys[i] = int32(hitRng.Intn(len(st.bodies)))
		}
		return func(i int) event {
			k := keys[i]
			return event{node: i % 2, body: st.bodies[k], kind: kindHit, want: st.payloads[k]}
		}
	}
	warmUp(ctx, st.ring, hits, 2)
	gen := newMixGen(rand.New(rand.NewSource(int64(b.seed)+2)), st)
	if b.traced {
		return svcMixedTraced(b, st, gen, hits)
	}

	openWin := time.Duration(mixedOpenShare * float64(b.window))
	t := gen.open(openWin)
	runtime.GC()
	res, err := runMixed(ctx, st, t, openWin, nil)
	b.op("plan request", err)
	if err := checkMixed(b, st, t, res.tr); err != nil {
		return err
	}
	b.op("plan", checkPlan(ctx, t.plan, res.plan))
	var hitMs, missMs []float64
	var hitAt, missAt []time.Duration
	for i, o := range res.tr.outs {
		ms := float64(o.Latency()) / 1e6
		if t.events[i].kind == kindHit {
			hitMs = append(hitMs, ms)
			hitAt = append(hitAt, o.Due)
		} else {
			missMs = append(missMs, ms)
			missAt = append(missAt, o.Due)
		}
	}
	// Each latency figure is the median over windows (one second for hits,
	// five for the sparser misses), so a stall of the host for part of the
	// run moves only the windows it touches.
	hitP50, nh := windowedQuantile(hitAt, hitMs, time.Second, 0.5)
	missP90, nm := windowedQuantile(missAt, missMs, 5*time.Second, 0.9)
	hs := summarize(hitMs, 0.99)
	ms := summarize(missMs, 0.9)
	b.set("p50_ms", hitP50, hs.N, fmt.Sprintf("warm-key latency from scheduled send at %g req/s, median of %d one-second p50s (hit_p50_ms)", mixedRate, nh))
	// Cold-request latency, the warm-key tail and the plan's time moved by
	// a fifth to a third between runs on a shared 2-vCPU host, so they are
	// printed but not tracked.
	b.note("miss_p90_ms=%s (median of %d five-second p90s)  miss_p50_ms=%s (n=%d)", fmtF(missP90), nm, fmtF(ms.P50), ms.N)
	b.note("hit_p%g_ms=%s (n=%d)  plan_s=%s (%d cells)", 100*hs.TailQ, fmtF(hs.Tail), hs.N, fmtF(res.planS), planCells(res.plan))

	rate, n, err := closedThroughput(ctx, b, st, gen, b.window-openWin)
	if err != nil {
		return err
	}
	b.set("throughput_per_s", rate, n, fmt.Sprintf("closed loop of the same mix over %d connections: requests served per second, median over batches of %d", mixedConns, mixedBatch))
	return nil
}

// closedThroughput measures the ring's capacity on svc-mixed's mix:
// mixedConns clients each send their next request as soon as the last one
// returns, in batches of mixedBatch requests, until d of traffic has been
// timed. Each batch is checked after its timed run. It returns the median
// over batches of each batch's steadyRate, and the number of requests
// sent. A faster simulator, cache or HTTP path raises it.
func closedThroughput(ctx context.Context, b *bench, st *mixedState, gen *mixGen, d time.Duration) (float64, int, error) {
	var rates []float64
	n := 0
	for timed := time.Duration(0); timed < d; {
		t := gen.closed(mixedBatch)
		t0 := time.Now()
		tr := runTraffic(ctx, st.ring, nil, t.due, mixedConns, func(i int) event { return t.events[i] })
		timed += time.Since(t0)
		if err := checkMixed(b, st, t, tr); err != nil {
			return 0, 0, err
		}
		rates = append(rates, steadyRate(tr.outs))
		n += len(tr.outs)
	}
	b.note("closed-loop batches: %d, IQR of their rates %s of the median", len(rates), fmtF(iqrShare(rates)))
	return median(rates), n, nil
}

// steadyRate is the rate at which a closed-loop batch completed requests
// while every client was busy: the requests served correctly by the
// batch's last send, per second up to that send. The drain after it, as
// clients go idle one by one behind the last slow requests, is left out.
func steadyRate(outs []outcome) float64 {
	var last time.Duration
	for _, o := range outs {
		last = max(last, o.Sent)
	}
	if last <= 0 {
		return 0
	}
	n := 0
	for _, o := range outs {
		if o.OK && o.Done <= last {
			n++
		}
	}
	return float64(n) / last.Seconds()
}

// planCells counts the cells of a served plan report.
func planCells(report []byte) int {
	var r sensitivity.Report
	if json.Unmarshal(report, &r) != nil {
		return 0
	}
	return len(r.Cells)
}

// svcMixedTraced is svc-mixed's traced run: the tracing overhead on a
// closed loop of warm hits, a traced half-window of the mix, then the
// simulator layers on a sample of its cold requests, the layer probes over
// its trace files and the peer path of its own ring.
func svcMixedTraced(b *bench, st *mixedState, gen *mixGen, hits func(int) func(int) event) error {
	ctx := context.Background()
	const batch = 1500
	overheadRatio(b, func(traced bool) time.Duration {
		r := (*recorder)(nil)
		if traced {
			r = st.rec
		}
		st.ring.setTracing(traced)
		t0 := time.Now()
		for _, o := range runTraffic(ctx, st.ring, r, make([]time.Duration, batch), 2, hits(batch)).outs {
			b.op("hit", okErr(o.OK))
		}
		return time.Since(t0)
	})
	st.ring.setTracing(true)
	window := b.window / 2
	t := gen.open(window)
	base, err := st.ring.scrape(ctx)
	if err != nil {
		return err
	}
	g := startGauges(ctx, st.ring, 200*time.Millisecond)
	res, err := runMixed(ctx, st, t, window, st.rec)
	g.finish()
	b.op("plan request", err)
	final, err := st.ring.scrape(ctx)
	if err != nil {
		return err
	}
	if err := checkMixed(b, st, t, res.tr); err != nil {
		return err
	}
	b.op("plan", checkPlan(ctx, t.plan, res.plan))
	servingLayers(b, st.ring, res.tr.outs, res.allocs, g, base, final)
	if err := peerGets(ctx, b, st.ring, st.keys[:16]); err != nil {
		return err
	}
	// The simulator layers on the first cold requests (trace-file ones
	// included) and the warm set's gang.
	n := min(16, len(t.misses))
	reqs := append(append([]service.Request(nil), t.misses[:n]...), st.reqs[len(st.reqs)-1])
	payloads := make([][]byte, 0, len(reqs))
	for i := range res.tr.outs {
		if ev := &t.events[i]; ev.kind == kindMiss && ev.miss < n && len(payloads) == ev.miss {
			payloads = append(payloads, res.tr.cold[i])
		}
	}
	payloads = append(payloads, st.payloads[len(st.payloads)-1])
	if len(payloads) != len(reqs) {
		return fmt.Errorf("cold replies out of order: %d of %d", len(payloads), len(reqs))
	}
	var files []string
	for _, f := range st.traceFiles {
		files = append(files, filepath.Join(st.traceDir, f))
	}
	return simAndProbeLayers(b, reqs, payloads, st.traceDir, files, st.rec)
}
