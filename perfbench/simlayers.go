package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"perfstacks/internal/bpred"
	"perfstacks/internal/cache"
	"perfstacks/internal/core"
	"perfstacks/internal/cpu"
	"perfstacks/internal/export"
	"perfstacks/internal/resultcache"
	"perfstacks/internal/sensitivity"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
)

// passAgg sums what traced passes measured per job kind.
type passAgg struct {
	singleNs, singleUops       float64
	simCycles, wrongPath       float64
	smpSeqNs, smpParNs         float64
	smpSeqUops, smpParUops     float64
	barrierWaits, smpCommitted float64
}

// tracedPass runs every job once with the layer wrappers: single-core jobs
// through runWrapped (reader, predictor and accountants wrapped), gangs
// through sim.RunSMP with wrapped per-thread readers. Each job is one span;
// every ReadBatch is a child span. It returns the jobs' result encodings.
func tracedPass(b *bench, jobs []simJob, sc, smp *simCounters, rec *recorder, agg *passAgg) [][]byte {
	out := make([][]byte, len(jobs))
	for i, j := range jobs {
		id := rec.newID()
		start := rec.now()
		var res sim.Result
		if j.Cores == 0 {
			res, _ = runWrapped(j.Machine, newTimedReader(j.mk(0), sc, rec, id), j.Opts, sc)
		} else {
			mk := func(tid int) trace.Reader { return newTimedReader(j.mk(tid), smp, rec, id) }
			res = foldSMP(sim.RunSMP(j.Machine, j.Cores, mk, j.Opts))
		}
		end := rec.now()
		name := "sim.job"
		if j.Cores > 0 {
			name = "sim.gang"
		}
		rec.add(span{ID: id, Req: id, Name: name, Start: start, End: end})
		d := float64(end - start)
		switch {
		case j.Cores == 0:
			agg.singleNs += d
			agg.singleUops += float64(res.Stats.Committed)
			agg.simCycles += float64(res.Stats.Cycles)
			agg.wrongPath += float64(res.Stats.WrongPathUops)
		case j.Opts.Parallel:
			agg.smpParNs += d
			agg.smpParUops += float64(res.Stats.Committed)
		default:
			agg.smpSeqNs += d
			agg.smpSeqUops += float64(res.Stats.Committed)
		}
		if j.Cores > 0 {
			agg.barrierWaits += float64(res.Stats.BarrierWaits)
			agg.smpCommitted += float64(res.Stats.Committed)
		}
		p, err := checkedPayload(&j, &res)
		b.op(j.Name+" traced", err)
		out[i] = p
	}
	return out
}

// reportSimLayers turns the wrappers' counters and the spans into the
// simulator layers' per-layer metrics.
func reportSimLayers(b *bench, sc, smp *simCounters, rec *recorder, agg *passAgg) {
	genNs := float64(sc.genNs.Load())
	genUops := float64(sc.genUops.Load())
	b.set("workload.gen_ns_per_uop", genNs/genUops, int(sc.genCalls.Load()), "ReadBatch time per generated uop, single-core jobs")
	b.set("workload.gen_share", genNs/agg.singleNs, 0, "generator time ÷ single-core job wall")

	kuops := agg.singleUops / 1e3
	clk := clockCost()
	lookupNs := max(0, float64(sc.lookupNs)/float64(sc.lookupSampled)-clk)
	b.set("bpred.lookup_ns", lookupNs, int(sc.lookupSampled), fmt.Sprintf("1-in-%d sampled Lookup, %.0f ns clock cost subtracted", sampleEvery, clk))
	b.set("bpred.lookups_per_kuop", float64(sc.lookups)/kuops, int(sc.lookups), "")
	b.set("bpred.accuracy", float64(sc.lookupCorrect)/float64(sc.lookups), int(sc.lookups), "correct ÷ lookups")

	acctNs := max(0, float64(sc.acctSampledNs)/float64(sc.acctSampled)-clk)
	b.set("core.acct_ns_per_call", acctNs, int(sc.acctSampled), fmt.Sprintf("1-in-%d sampled Cycle, %.0f ns clock cost subtracted", sampleEvery, clk))
	b.set("core.acct_share", acctNs*float64(sc.acctCalls)/agg.singleNs, int(sc.acctCalls), "estimated accountant time ÷ single-core job wall")
	b.set("core.cycles_per_call", float64(sc.acctCycles)/float64(sc.acctSamples), int(sc.acctSamples), "simulated cycles per Cycle call (idle-window skip ratio)")

	// The job's self time: its span minus the ReadBatch child spans, then
	// minus the sampled estimates for the predictor and accountants, whose
	// calls are too frequent to record as spans.
	self := float64(selfTimes(rec.spans)["sim.job"])
	cpuSelf := self - lookupNs*float64(sc.lookups) - acctNs*float64(sc.acctCalls)
	b.set("cpu.self_ns_per_uop", cpuSelf/agg.singleUops, 0, "job wall − generator − predictor − accountants, per uop (caches and memory included)")
	b.set("cpu.sim_cycles_per_s", agg.simCycles/(agg.singleNs/1e9), 0, "simulated cycles per host second, single-core jobs")
	b.set("cpu.wrongpath_per_kuop", agg.wrongPath/kuops, 0, "")
	b.set("cpu.smp_seq_ns_per_uop", agg.smpSeqNs/agg.smpSeqUops, 0, "sequential gang wall per committed uop")
	b.set("cpu.smp_par_ns_per_uop", agg.smpParNs/agg.smpParUops, 0, "parallel gang wall per committed uop")
	b.set("cpu.barrier_waits_per_kuop", agg.barrierWaits/(agg.smpCommitted/1e3), 0, "gang jobs")
}

// clockCost is the cost of one timed empty interval (time.Now then
// time.Since), subtracted from the sampled timings of calls that take only
// a few times as long: the median of five means over 10000 intervals.
func clockCost() float64 {
	var means []float64
	for r := 0; r < 5; r++ {
		var sum time.Duration
		for i := 0; i < 10000; i++ {
			t := time.Now()
			sum += time.Since(t)
		}
		means = append(means, float64(sum)/10000)
	}
	return median(means)
}

// allocsPerKuop runs the jobs once untraced and reports the heap
// allocations per committed kilo-uop, machine construction included.
func allocsPerKuop(b *bench, jobs []simJob) [][]byte {
	var uops float64
	out := make([][]byte, len(jobs))
	a0 := readAllocs()
	for i, j := range jobs {
		res := j.run()
		uops += float64(j.Committed())
		p, err := checkedPayload(&j, &res)
		b.op(j.Name, err)
		out[i] = p
	}
	a := readAllocs().since(a0)
	b.set("runtime.allocs_per_kuop", float64(a.objects)/(uops/1e3), len(jobs), "heap allocations per committed kuop, untraced, machine construction included")
	return out
}

// layerProbes measures the layers a workload's simulations and results pass
// through, one public call at a time: accounting overhead, cache replay,
// export, the cache tiers and key derivation, trace-file reading (over
// traceFiles, or files written from the jobs when there are none) and plan
// expansion. It then writes the recorder's spans as trace-event JSON.
func layerProbes(b *bench, jobs []simJob, traceFiles []string, rec *recorder) error {
	var single []simJob
	for _, j := range jobs {
		if j.Cores == 0 {
			single = append(single, j)
		}
	}
	acctOverhead(b, single)
	cacheReplay(b, single)

	var results []sim.Result
	var payloads [][]byte
	for _, j := range single {
		res := j.run()
		p, err := checkedPayload(&j, &res)
		b.op(j.Name+" probe", err)
		if err != nil {
			continue
		}
		results = append(results, res)
		payloads = append(payloads, p)
	}
	const reps = 20
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for i := range results {
			if _, err := export.EncodeResult(&results[i], single[i].Label); err != nil {
				return err
			}
		}
	}
	calls := float64(reps * len(results))
	b.set("export.encode_us", float64(time.Since(t0))/1e3/calls, int(calls), "")
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, p := range payloads {
			if _, _, err := export.DecodeResult(p); err != nil {
				return err
			}
		}
	}
	b.set("export.decode_us", float64(time.Since(t0))/1e3/calls, int(calls), "")

	if err := cacheTiers(b, single, payloads); err != nil {
		return err
	}
	if err := traceFileProbe(b, single, traceFiles); err != nil {
		return err
	}
	for _, j := range single {
		if j.prof == nil {
			continue
		}
		var p *sensitivity.Plan
		var ds []float64
		for r := 0; r < 5; r++ {
			t0 := time.Now()
			var err error
			if p, err = sensitivity.NewPlan(j.Machine, *j.prof, j.Uops, j.Opts, sensitivity.PlanOptions{}); err != nil {
				return err
			}
			ds = append(ds, float64(time.Since(t0))/1e6)
		}
		b.set("sensitivity.expand_ms", median(ds), len(ds), "NewPlan, every parameter, "+j.Name)
		b.set("sensitivity.cells", float64(len(p.Cells)), 0, "cells of that plan")
		break
	}
	if rec != nil {
		path := filepath.Join(".bench_out", fmt.Sprintf("trace-%s-%d.json", filepath.Base(b.dir), b.seed))
		if err := rec.writeChromeTrace(path); err != nil {
			return err
		}
		b.note("trace-event JSON: %s (%d spans kept, %d dropped)", path, len(rec.spans), rec.dropped)
		self := selfTimes(rec.spans)
		names := make([]string, 0, len(rec.count))
		for n := range rec.count {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			b.note("span %-20s n=%-8d total=%10.3f ms  self=%10.3f ms (kept spans)", n, rec.count[n], float64(rec.total[n])/1e6, float64(self[n])/1e6)
		}
	}
	return nil
}

// acctOverhead is the paper's §IV claim as a ratio: the single-core jobs
// built as BenchmarkAccountingOverhead builds them, with the CPI and FLOPS
// accountants detached and attached, alternating, five rounds each.
func acctOverhead(b *bench, jobs []simJob) {
	run := func(with bool) float64 {
		t0 := time.Now()
		for _, j := range jobs {
			m := j.Machine
			m.Core.WrongPath = j.Opts.WrongPath
			var pred bpred.Predictor = bpred.Perfect{}
			if !m.Core.PerfectBpred {
				pred = bpred.NewTournament(m.Bpred)
			}
			c := cpu.New(m.Core, cache.NewHierarchy(m.Hierarchy), pred, j.mk(0))
			if with {
				c.Attach(core.NewMultiStageAccountant(core.Options{Width: m.Core.MinWidth(), Scheme: j.Opts.Scheme}))
				c.Attach(core.NewFLOPSAccountant(m.Core.VFPUnits, m.Core.VectorLanes))
			}
			c.Run()
		}
		return time.Since(t0).Seconds()
	}
	var without, with []float64
	for r := 0; r < 5; r++ {
		without = append(without, run(false))
		with = append(with, run(true))
	}
	mw, mo := median(with), median(without)
	b.set("core.acct_overhead_ratio", mw/mo, len(with),
		fmt.Sprintf("with ÷ without accountants: %s s (IQR %.3f) / %s s (IQR %.3f)", fmtF(mw), iqrShare(with), fmtF(mo), iqrShare(without)))
}

// cacheReplay replays the jobs' fetch and data addresses through a fresh
// hierarchy of each job's machine via the public Ifetch/Data calls. The
// miss counts are exact and must not move under a simulator-speed change.
func cacheReplay(b *bench, jobs []simJob) {
	var ns, accesses, uops float64
	var l1i, l1d, l2, l3, memReads float64
	buf := make([]trace.Uop, 256)
	for _, j := range jobs {
		h := cache.NewHierarchy(j.Machine.Hierarchy)
		br := trace.AsBatch(j.mk(0))
		var at int64
		for n := br.ReadBatch(buf); n > 0; n = br.ReadBatch(buf) {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				u := &buf[i]
				h.Ifetch(u.PC, at)
				if u.Op.IsMem() {
					h.Data(u.Addr, at, u.Op == trace.OpStore)
					accesses++
				}
				at++
			}
			ns += float64(time.Since(t0))
			accesses += float64(n)
			uops += float64(n)
		}
		l1i += float64(h.L1I.Stats.Misses)
		l1d += float64(h.L1D.Stats.Misses)
		l2 += float64(h.L2.Stats.Misses)
		l3 += float64(l3Misses(h))
		memReads += float64(h.Mem.Stats().Reads)
	}
	k := uops / 1e3
	b.set("cache.replay_ns_per_access", ns/accesses, int(accesses), "Ifetch/Data through a fresh hierarchy")
	b.set("cache.l1i_mpku", l1i/k, 0, "replay misses per kilo-uop")
	b.set("cache.l1d_mpku", l1d/k, 0, "")
	b.set("cache.l2_mpku", l2/k, 0, "")
	b.set("cache.l3_mpku", l3/k, 0, "")
	b.set("mem.reads_per_kuop", memReads/k, 0, "")
}

// l3Misses reads the L3's miss count, monolithic or sliced.
func l3Misses(h *cache.Hierarchy) uint64 {
	if h.L3 != nil {
		return h.L3.Stats.Misses
	}
	var t uint64
	if h.L3Sliced != nil {
		for i := 0; i < h.L3Sliced.NumSlices(); i++ {
			if c, ok := h.L3Sliced.Slice(i).(*cache.Cache); ok {
				t += c.Stats.Misses
			}
		}
	}
	return t
}

// cacheTiers times SimKey on the jobs' configurations and the memory and
// disk tiers' public calls on the jobs' real payloads, in a directory of
// the run's scratch space.
func cacheTiers(b *bench, jobs []simJob, payloads [][]byte) error {
	var keys []resultcache.Key
	var keyNs float64
	for _, j := range jobs {
		if j.prof == nil {
			continue
		}
		t0 := time.Now()
		const reps = 20
		var k resultcache.Key
		for r := 0; r < reps; r++ {
			var err error
			if k, err = resultcache.SimKey(j.Machine, *j.prof, j.Uops, j.Opts); err != nil {
				return err
			}
		}
		keyNs += float64(time.Since(t0)) / reps
		keys = append(keys, k)
	}
	b.set("resultcache.simkey_us", keyNs/1e3/float64(len(keys)), len(keys)*20, "")
	for len(keys) < len(payloads) {
		keys = append(keys, resultcache.KeyOf([]byte(fmt.Sprint(len(keys)))))
	}
	mem := resultcache.NewMemory(64 << 20)
	for i, p := range payloads {
		mem.Put(keys[i], p)
	}
	const reps = 200
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for i := range payloads {
			if _, ok := mem.Get(keys[i]); !ok {
				return fmt.Errorf("memory tier lost key %d", i)
			}
		}
	}
	b.set("resultcache.mem_get_us", float64(time.Since(t0))/1e3/float64(reps*len(payloads)), reps*len(payloads), "")

	dir := filepath.Join(b.dir, "tiers")
	disk, err := resultcache.NewDisk(dir)
	if err != nil {
		return err
	}
	var puts []float64
	for i, p := range payloads {
		t0 := time.Now()
		if err := disk.Put(keys[i], p); err != nil {
			return err
		}
		puts = append(puts, float64(time.Since(t0))/1e6)
	}
	b.set("resultcache.disk_put_ms", median(puts), len(puts), "median Disk.Put (fsync included)")
	const dreps = 20
	t0 = time.Now()
	for r := 0; r < dreps; r++ {
		for i := range payloads {
			if _, ok, _ := disk.Get(keys[i]); !ok {
				return fmt.Errorf("disk tier lost key %d", i)
			}
		}
	}
	b.set("resultcache.disk_get_us", float64(time.Since(t0))/1e3/float64(dreps*len(payloads)), dreps*len(payloads), "page-cache warm")
	return os.RemoveAll(dir)
}

// traceFileProbe times trace.NewFileReader+ReadBatch over trace files: the
// workload's own, or files written here from its first jobs' streams.
func traceFileProbe(b *bench, jobs []simJob, files []string) error {
	if len(files) == 0 {
		for i, j := range jobs {
			if i == 4 {
				break
			}
			path := filepath.Join(b.dir, fmt.Sprintf("probe-%d.trace", i))
			if err := writeTraceFile(path, j.mk(0), j.Uops); err != nil {
				return err
			}
			files = append(files, path)
		}
	}
	var ns, uops float64
	buf := make([]trace.Uop, 256)
	for r := 0; r < 3; r++ {
		for _, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			t0 := time.Now()
			fr, err := trace.NewFileReader(bytes.NewReader(data))
			if err != nil {
				return err
			}
			for n := fr.ReadBatch(buf); n > 0; n = fr.ReadBatch(buf) {
				uops += float64(n)
			}
			ns += float64(time.Since(t0))
			if err := fr.Err(); err != nil {
				return err
			}
		}
	}
	b.set("trace.file_ns_per_uop", ns/uops, int(uops), fmt.Sprintf("%d files read from memory", len(files)))
	return nil
}

// writeTraceFile writes the first n uops of r as a trace file.
func writeTraceFile(path string, r trace.Reader, n uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		return err
	}
	if _, err := trace.Copy(w, r, n); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
