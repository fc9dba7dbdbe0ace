package service

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBuckets are the request-latency histogram bounds in seconds,
// spanning sub-millisecond cache hits to multi-second cold simulations.
var latencyBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

// planBuckets are the sensitivity-plan wall-time histogram bounds in
// seconds: a plan is hundreds of simulations, so the range is shifted well
// past the per-request buckets.
var planBuckets = []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120}

// Label values of the counter vectors, in exposition order; the constants
// index them.
var (
	planEvents      = [...]string{"started", "completed", "failed", "report_cache_hit"}
	cellSources     = [...]string{"sim", "cache", "peer", "coalesced"}
	peerServedKinds = [...]string{"get_hit", "get_miss", "fill", "fill_rejected", "auth_rejected"}
	peerOutcomes    = [...]string{"hit", "miss", "error", "corrupt", "rejected", "fill"}
)

const (
	planStarted   = iota // admitted to a slot
	planCompleted        // produced a report
	planFailed           // errored or was canceled
	planReportHit        // served whole from the report cache
)

const (
	peerGetHit       = iota // peer GET served from the local cache
	peerGetMiss             // peer GET answered 404
	peerFill                // peer PUT verified and stored
	peerFillRejected        // peer PUT rejected by verification
	peerAuthRejected        // peer request without the ring token
)

// metrics holds the server's counters. Counters are atomics updated on the
// request path; the one map (status codes) takes a mutex because codes are
// few and writes are per-request, not per-cycle. Gauges are not kept here:
// the page reads them from the pool and the singleflight when it renders.
type metrics struct {
	mu    sync.Mutex
	codes map[int]uint64

	latency  *histogram // request wall time
	planWall *histogram // completed-plan wall time

	sims      atomic.Uint64 // simulations actually run
	shed      atomic.Uint64 // requests rejected with 429
	canceled  atomic.Uint64 // requests abandoned by the client
	coalesced atomic.Uint64 // requests served by another request's flight

	plans      [len(planEvents)]atomic.Uint64
	cells      [len(cellSources)]atomic.Uint64 // plan cells by result source
	peerServed [len(peerServedKinds)]atomic.Uint64
}

func newMetrics() *metrics {
	return &metrics{
		codes:    make(map[int]uint64),
		latency:  newHistogram(latencyBuckets),
		planWall: newHistogram(planBuckets),
	}
}

// observe records one finished request: its status code and wall time.
func (m *metrics) observe(code int, wall time.Duration) {
	m.mu.Lock()
	m.codes[code]++
	m.mu.Unlock()
	m.latency.observe(wall)
}

// cellSource tallies one plan cell by where its result came from. The
// source strings are the sensitivity.Source* constants; an unknown string
// counts as a simulation (the conservative reading).
func (m *metrics) cellSource(source string) {
	m.cells[max(slices.Index(cellSources[:], source), 0)].Add(1)
}

// sensitivityActive reports whether any sensitivity request ever touched
// this process. The /metrics section is gated on it so a node that never
// served a plan stays byte-compatible with the pre-sensitivity exposition.
func (m *metrics) sensitivityActive() bool {
	for i := range m.plans {
		if m.plans[i].Load() != 0 {
			return true
		}
	}
	return false
}

// histogram is a cumulative Prometheus histogram over fixed bounds in
// seconds; the sum is kept in whole microseconds.
type histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last = +Inf
	sumUS  atomic.Uint64
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

func (h *histogram) observe(d time.Duration) {
	h.counts[sort.SearchFloat64s(h.bounds, d.Seconds())].Add(1)
	h.sumUS.Add(uint64(d.Microseconds()))
	h.count.Add(1)
}

func (h *histogram) write(e expWriter, name, help string) {
	e.header(name, "histogram", help)
	cum := uint64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		e.sample(name+"_bucket", cum, "le", le)
	}
	e.sample(name+"_sum", float64(h.sumUS.Load())/1e6)
	e.sample(name+"_count", h.count.Load())
}

// expWriter renders the Prometheus text exposition format (version 0.0.4)
// with the standard library only.
type expWriter struct{ w io.Writer }

// header writes a metric family's # HELP and # TYPE lines.
func (e expWriter) header(name, typ, help string) {
	fmt.Fprintf(e.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample writes one series; labels are name/value pairs.
func (e expWriter) sample(name string, v any, labels ...string) {
	var ls []string
	for i := 0; i+1 < len(labels); i += 2 {
		ls = append(ls, fmt.Sprintf("%s=%q", labels[i], labels[i+1]))
	}
	if len(ls) > 0 {
		name += "{" + strings.Join(ls, ",") + "}"
	}
	fmt.Fprintf(e.w, "%s %v\n", name, v)
}

// scalar writes a family with one unlabelled series.
func (e expWriter) scalar(name, typ, help string, v any) {
	e.header(name, typ, help)
	e.sample(name, v)
}

// vec writes a counter family with one series per value of label.
func (e expWriter) vec(name, help, label string, values []string, counts ...uint64) {
	e.header(name, "counter", help)
	for i, v := range values {
		e.sample(name, counts[i], label, v)
	}
}

// loads snapshots a counter vector.
func loads(cs []atomic.Uint64) []uint64 {
	out := make([]uint64, len(cs))
	for i := range cs {
		out[i] = cs[i].Load()
	}
	return out
}

// serveMetrics renders the /metrics page. The sensitivity section appears
// only once a sensitivity request has touched this process, and the peer
// section only on a clustered node, so a node using neither stays
// byte-compatible with the exposition that predates them.
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.metrics
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e := expWriter{w}

	e.header("simd_requests_total", "counter", "Requests served, by HTTP status code.")
	m.mu.Lock()
	codes := make([]int, 0, len(m.codes))
	for c := range m.codes {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		e.sample("simd_requests_total", m.codes[c], "code", strconv.Itoa(c))
	}
	m.mu.Unlock()
	m.latency.write(e, "simd_request_seconds", "Request latency.")

	cs := s.cache.Stats.Snapshot()
	e.vec("simd_cache_hits_total", "Result-cache hits, by tier.", "tier", []string{"mem", "disk"}, cs.MemHits, cs.DiskHits)
	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"simd_cache_misses_total", "Result-cache misses.", cs.Misses},
		{"simd_cache_corrupt_total", "On-disk entries that failed verification.", cs.Corrupt},
		{"simd_cache_stores_total", "Results written to the cache.", cs.Stores},
		{"simd_sims_total", "Simulations run (cache misses that reached the simulator).", m.sims.Load()},
		{"simd_shed_total", "Requests rejected because the admission queue was full.", m.shed.Load()},
		{"simd_canceled_total", "Requests whose client disconnected before completion.", m.canceled.Load()},
		{"simd_coalesced_total", "Requests served by coalescing onto an identical in-flight request.", m.coalesced.Load()},
	} {
		e.scalar(c.name, "counter", c.help, c.v)
	}

	if m.sensitivityActive() {
		e.vec("simd_sensitivity_plans_total", "Sensitivity plans, by lifecycle event.", "event", planEvents[:], loads(m.plans[:])...)
		e.vec("simd_sensitivity_cells_total", "Plan cells satisfied, by result source.", "source", cellSources[:], loads(m.cells[:])...)
		m.planWall.write(e, "simd_sensitivity_plan_seconds", "Completed-plan wall time.")
	}
	if s.cluster != nil {
		s.writePeerMetrics(e)
	}

	e.scalar("simd_queue_depth", "gauge", "Jobs admitted but not yet running.", s.pool.Queued())
	e.scalar("simd_active_jobs", "gauge", "Simulations currently running.", s.pool.Active())
	e.scalar("simd_inflight_keys", "gauge", "Distinct request keys currently being produced.", s.group.InFlight())
}

// writePeerMetrics renders the cluster section: ladder outcomes, the
// served side of the peer protocol, and per-peer fetch counters plus
// breaker state (0=closed, 1=open, 2=half-open).
func (s *Server) writePeerMetrics(e expWriter) {
	cs := &s.cluster.Stats
	e.vec("simd_peer_fetch_total", "Peer-rung ladder outcomes for local misses this node does not own.",
		"outcome", []string{"hit", "miss", "degraded"}, cs.Hits.Load(), cs.Misses.Load(), cs.Degrades.Load())
	e.vec("simd_peer_hedges_total", "Hedged second reads launched (and won).",
		"result", []string{"launched", "won"}, cs.Hedges.Load(), cs.HedgeWins.Load())
	e.vec("simd_peer_offers_total", "Locally simulated results pushed to their ring owner.",
		"result", []string{"ok", "error"}, cs.Offers.Load(), cs.OfferErrors.Load())
	e.vec("simd_peer_served_total", "Peer protocol requests served by this node.",
		"kind", peerServedKinds[:], loads(s.metrics.peerServed[:])...)

	peers := s.cluster.PeerStores()
	e.header("simd_peer_breaker_state", "gauge", "Per-peer circuit breaker state (0=closed, 1=open, 2=half-open).")
	for _, p := range peers {
		e.sample("simd_peer_breaker_state", int(p.Breaker().State()), "peer", p.Addr())
	}
	e.header("simd_peer_breaker_opens_total", "counter", "Per-peer breaker trips to open.")
	for _, p := range peers {
		e.sample("simd_peer_breaker_opens_total", p.Breaker().Opens(), "peer", p.Addr())
	}
	e.header("simd_peer_requests_total", "counter", "Per-peer exchange outcomes from this node's client side.")
	for _, p := range peers {
		st := &p.Stats
		for i, n := range []uint64{st.Hits.Load(), st.Misses.Load(), st.Errors.Load(), st.Corrupt.Load(), st.Rejected.Load(), st.Fills.Load()} {
			e.sample("simd_peer_requests_total", n, "peer", p.Addr(), "outcome", peerOutcomes[i])
		}
	}
}
