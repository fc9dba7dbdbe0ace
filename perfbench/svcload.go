package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"sync"
	"time"
)

// discardLog silences the HTTP server's and simd's operational logging.
var discardLog = log.New(io.Discard, "", 0)

// Request classes of an open-loop event.
const (
	kindHit  = iota // a warm key: the reply must equal its warm-up payload
	kindMiss        // a cold key: checked against a direct simulation afterwards
)

// event is one scheduled request.
type event struct {
	node int
	body []byte
	kind int
	want []byte // kindHit: the payload stored for the key at warm-up
	miss int    // kindMiss: index of the cold request it carries
}

// outcome is what one event measured. It is kept small because a run holds
// one per scheduled request and the load generator shares the process, and
// so the peak-RSS figure, with the server.
type outcome struct {
	sample
	id     int64
	client int64 // client-side wall, ns
	size   int32 // response body bytes
}

// traffic is one run of runTraffic: per-request outcomes, and the bodies of
// cold replies (kept for the after-the-fact checks).
type traffic struct {
	outs []outcome
	mu   sync.Mutex
	cold map[int][]byte
}

// runTraffic sends the event ev(i) at due[i] over conns connections and
// checks every hit inline, after its completion time is taken. Events are
// built on demand so a long schedule costs little memory. With a recorder, each request is a "client.request" span whose
// id the handler timer sees.
func runTraffic(ctx context.Context, r *svcRing, rec *recorder, due []time.Duration, conns int, ev func(i int) event) *traffic {
	t := &traffic{outs: make([]outcome, len(due)), cold: map[int][]byte{}}
	samples := openLoop(ctx, realClock{}, due, conns, func(i int) bool {
		e := ev(i)
		id := rec.newID()
		start := rec.now()
		rep, err := r.simulate(ctx, e.node, e.body, id)
		end := rec.now()
		rec.add(span{ID: id, Req: id, Name: "client.request", Start: start, End: end})
		o := &t.outs[i]
		o.id, o.size, o.client = id, int32(len(rep.Body)), int64(rep.Latency)
		if err != nil {
			return false
		}
		if e.kind == kindMiss {
			t.mu.Lock()
			t.cold[i] = rep.Body
			t.mu.Unlock()
			return true
		}
		return bytes.Equal(rep.Body, e.want)
	})
	for i := range t.outs {
		t.outs[i].sample = samples[i]
	}
	return t
}

// gaugeSampler scrapes the ring's /metrics on a fixed period while traffic
// runs, for the runner's queue and worker gauges.
type gaugeSampler struct {
	stop   chan struct{}
	done   chan struct{}
	queue  []float64
	active []float64
}

func startGauges(ctx context.Context, r *svcRing, every time.Duration) *gaugeSampler {
	g := &gaugeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				ss, err := r.scrape(ctx)
				if err != nil {
					continue // a missed sample only thins the average
				}
				g.queue = append(g.queue, promSum(ss, "simd_queue_depth", nil))
				g.active = append(g.active, promSum(ss, "simd_active_jobs", nil))
			}
		}
	}()
	return g
}

// finish stops the sampler and waits for it.
func (g *gaugeSampler) finish() {
	close(g.stop)
	<-g.done
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// servingLayers reports the serving layers' per-layer metrics from one
// traced traffic phase: handler and transport times, payload size,
// allocation per request, generator lateness, the runner gauges and the
// cache, cluster and sensitivity counters scraped from /metrics before
// (base) and after (final) the phase, so set-up and warm-up traffic do not
// count.
func servingLayers(b *bench, r *svcRing, outs []outcome, allocs allocCounters, g *gaugeSampler, base, final []promSeries) {
	delta := func(name string, match map[string]string) float64 {
		return promSum(final, name, match) - promSum(base, name, match)
	}
	handler := r.handlerNs()
	var hs, tr, late []float64
	var size float64
	for _, o := range outs {
		late = append(late, float64(o.Late())/1e6)
		size += float64(o.size)
		if h, ok := handler[o.id]; ok {
			hs = append(hs, float64(h)/1e3)
			tr = append(tr, float64(o.client-h)/1e3)
		}
	}
	n := len(outs)
	hsum := summarize(hs, 0.99)
	b.set("service.handler_us_p50", hsum.P50, hsum.N, "middleware around Handler(), /v1/simulate")
	b.set("service.handler_us_p99", hsum.Tail, hsum.N, fmt.Sprintf("p%g", 100*hsum.TailQ))
	b.set("service.transport_us_p50", median(tr), len(tr), "client wall − handler time, per request")
	b.set("service.payload_kb", size/float64(n)/1024, n, "mean response body")
	b.set("runtime.allocs_per_req", float64(allocs.objects)/float64(n), n, "whole process: client and server")
	b.set("runtime.alloc_kb_per_req", float64(allocs.bytes)/1024/float64(n), n, "whole process: client and server")
	ls := summarize(late, 0.99)
	b.set("loadgen.late_p99_ms", ls.Tail, ls.N, fmt.Sprintf("p%g generator lateness", 100*ls.TailQ))

	b.set("runner.queue_depth_mean", mean(g.queue), len(g.queue), "simd_queue_depth summed over nodes")
	b.set("runner.busy_share", mean(g.active)/float64(r.workers), len(g.active), fmt.Sprintf("simd_active_jobs ÷ %d workers", r.workers))
	b.set("runner.shed", delta("simd_shed_total", nil), 0, "")

	mem := delta("simd_cache_hits_total", map[string]string{"tier": "mem"})
	disk := delta("simd_cache_hits_total", map[string]string{"tier": "disk"})
	miss := delta("simd_cache_misses_total", nil)
	lookups := mem + disk + miss
	b.set("resultcache.mem_hit_ratio", ratio(mem, lookups), int(lookups), "of cache lookups")
	b.set("resultcache.disk_hit_ratio", ratio(disk, lookups), int(lookups), "of cache lookups")
	b.set("resultcache.miss_ratio", ratio(miss, lookups), int(lookups), "of cache lookups")
	reqs := delta("simd_requests_total", nil)
	b.set("resultcache.coalesced_ratio", ratio(delta("simd_coalesced_total", nil), reqs), int(reqs), "of requests")
	cells := delta("simd_sensitivity_cells_total", nil)
	hitCells := cells - delta("simd_sensitivity_cells_total", map[string]string{"source": "sim"})
	b.set("sensitivity.cell_hit_ratio", ratio(hitCells, cells), int(cells), "plan cells not simulated ÷ cells (0 without a plan)")
	if len(r.nodes) > 1 {
		clusterLayers(b, base, final)
	}
}

// clusterLayers reports the peer-ladder counters of a ring over a phase;
// breaker trips count over the ring's whole life.
func clusterLayers(b *bench, base, final []promSeries) {
	delta := func(name string, match map[string]string) float64 {
		return promSum(final, name, match) - promSum(base, name, match)
	}
	fetches := delta("simd_peer_fetch_total", nil)
	b.set("cluster.peer_hit_ratio", ratio(delta("simd_peer_fetch_total", map[string]string{"outcome": "hit"}), fetches), int(fetches), "of peer fetches")
	b.set("cluster.hedge_ratio", ratio(delta("simd_peer_hedges_total", map[string]string{"result": "launched"}), fetches), int(fetches), "hedges launched per peer fetch")
	b.set("cluster.breaker_opens", promSum(final, "simd_peer_breaker_opens_total", nil), 0, "expected 0")
}

func ratio(a, base float64) float64 {
	if base == 0 {
		return 0
	}
	return a / base
}

// peerGets times authenticated GET /v1/peer/result/{key} against every
// node for each key, keeping the 200s (the node that holds the entry).
func peerGets(ctx context.Context, b *bench, r *svcRing, keys []string) error {
	var us []float64
	for rep := 0; rep < 5; rep++ {
		for _, k := range keys {
			for _, n := range r.nodes {
				got, err := r.do(ctx, "GET", n.url+"/v1/peer/result/"+k, nil, 0, true)
				if err != nil {
					return err
				}
				if got.Code == 200 {
					us = append(us, float64(got.Latency)/1e3)
				}
			}
		}
	}
	if len(us) == 0 {
		return fmt.Errorf("no peer GET found any of %d keys", len(keys))
	}
	b.set("cluster.peer_get_us", median(us), len(us), "authenticated GET /v1/peer/result/{key}, hits only")
	return nil
}

// prewarm POSTs each body once, nproc at a time, to node i%len(nodes), and
// returns the payloads and result keys; every reply must be a 200.
func prewarm(ctx context.Context, r *svcRing, bodies [][]byte, par int) ([][]byte, []string, error) {
	payloads := make([][]byte, len(bodies))
	keys := make([]string, len(bodies))
	errs := make([]error, len(bodies))
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			rep, err := r.simulate(ctx, i%len(r.nodes), bodies[i], 0)
			payloads[i], keys[i], errs[i] = rep.Body, rep.Key, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("pre-warm request %d: %w", i, err)
		}
	}
	return payloads, keys, nil
}
