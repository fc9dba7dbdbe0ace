package service

import (
	"context"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"perfstacks/internal/cluster"
	"perfstacks/internal/resultcache"
)

// TestResolveKeyGolden pins the content address of the two request kinds
// resultcache.SimKey does not cover — a trace-file request and an SMP gang
// — to checked-in hex keys. Together with resultcache.TestSimKeyGolden it
// guards every key simd derives: a cache directory written by an earlier
// build stays reusable only while these hold. Update the table only
// together with sim.SchemaVersion.
func TestResolveKeyGolden(t *testing.T) {
	traceDir := t.TempDir()
	name := writeTraceFile(t, traceDir, "golden.trc", 1000)
	s, err := New(context.Background(), Config{TraceDir: traceDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"trace-file", Request{Machine: "BDW", TracePath: name},
			"bc5707dfbfda525bb5a3634d691c2c19468d93efedeedef3ed9b5fd71afda87d"},
		{"smp-sliced", Request{Machine: "BDW", Workload: &WorkloadSpec{Profile: "mcf", Uops: 4000},
			SMP: &SMPSpec{Cores: 4, L3Slices: 2}},
			"46235d0dc2bbec2b256b73bdd1206a5e7e5f10fee33816246283345b4182f60d"},
	}
	for _, c := range cases {
		p, err := s.resolve(&c.req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := hex.EncodeToString(p.key[:]); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
}

// metricsPage renders s's /metrics page.
func metricsPage(t *testing.T, s *Server) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	return rec.Body.Bytes()
}

// recordTraffic drives a fixed sequence of request, cache and counter
// events into s: status codes with latencies (two exactly on a bucket
// bound, one past the last), every cache-tier outcome, and the
// simulation, shed, cancel and coalesce counters.
func recordTraffic(s *Server) {
	for _, ev := range []struct {
		code int
		wall time.Duration
	}{
		{200, 300 * time.Microsecond},
		{200, 5 * time.Millisecond}, // exactly on the 0.005 bound
		{200, 1200 * time.Millisecond},
		{429, 2 * time.Microsecond},
		{400, 100 * time.Microsecond},
		{499, 7 * time.Second},
		{504, 12 * time.Second},      // past the last bound: +Inf only
		{500, 50 * time.Millisecond}, // exactly on the 0.05 bound
		{200, 750 * time.Microsecond},
	} {
		s.metrics.observe(ev.code, ev.wall)
	}
	cs := &s.cache.Stats
	cs.MemHits.Add(6)
	cs.DiskHits.Add(2)
	cs.Misses.Add(4)
	cs.Corrupt.Add(1)
	cs.Stores.Add(3)
	m := s.metrics
	m.sims.Add(4)
	m.shed.Add(1)
	m.canceled.Add(1)
	m.coalesced.Add(2)
}

// recordPlans drives a fixed sequence of sensitivity plan and cell events
// into s, including a plan wall time exactly on a bucket bound and a cell
// source the exposition does not know.
func recordPlans(s *Server) {
	m := s.metrics
	m.plans[planStarted].Add(3)
	m.plans[planCompleted].Add(2)
	m.plans[planFailed].Add(1)
	m.plans[planReportHit].Add(1)
	m.planWall.observe(500 * time.Millisecond) // exactly on the 0.5 bound
	m.planWall.observe(2250 * time.Millisecond)
	for _, src := range []string{"sim", "cache", "sim", "peer", "coalesced", "cache", "unknown", "sim"} {
		m.cellSource(src)
	}
}

// recordPeerServed drives the served side of the peer protocol.
func recordPeerServed(s *Server) {
	m := s.metrics
	m.peerServed[peerGetHit].Add(2)
	m.peerServed[peerGetMiss].Add(1)
	m.peerServed[peerFill].Add(3)
	m.peerServed[peerFillRejected].Add(1)
	m.peerServed[peerAuthRejected].Add(4)
}

// TestMetricsGolden compares the rendered /metrics page byte for byte with
// checked-in pages for three fixed scenarios: a fresh node, a node after
// request, plan and cell traffic with live pool and singleflight gauges,
// and a clustered node with per-peer stats and one tripped breaker. The
// golden files were rendered by an earlier build and are never
// regenerated: the exposition is an interface that dashboards and the
// benchmark harness scrape.
func TestMetricsGolden(t *testing.T) {
	t.Run("fresh", func(t *testing.T) {
		s, err := New(context.Background(), Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		checkGolden(t, "metrics_fresh.txt", metricsPage(t, s))
	})

	t.Run("traffic", func(t *testing.T) {
		s, err := New(context.Background(), Config{Workers: 1, QueueDepth: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		recordTraffic(s)
		recordPlans(s)

		// Live gauges: one job running, two queued, one key in flight.
		gate := make(chan struct{})
		defer close(gate)
		for i := 0; i < 3; i++ {
			if _, err := s.pool.Submit(context.Background(), func(ctx context.Context) error {
				<-gate
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				// The worker takes the first job before the queue fills.
				waitGauges(t, s, 0, 1, 0)
			}
		}
		go s.group.Do(context.Background(), resultcache.KeyOf([]byte("golden")), func(ctx context.Context) ([]byte, error) {
			<-gate
			return nil, nil
		})
		waitGauges(t, s, 2, 1, 1)
		checkGolden(t, "metrics_traffic.txt", metricsPage(t, s))
	})

	t.Run("cluster", func(t *testing.T) {
		const self, peerA, peerB = "http://10.0.0.1:7070", "http://10.0.0.2:7070", "http://10.0.0.3:7070"
		s, err := New(context.Background(), Config{Workers: 2, Cluster: &cluster.Config{
			Peers:     []string{self, peerA, peerB},
			Self:      self,
			AuthToken: "golden",
			Breaker:   cluster.BreakerConfig{FailureThreshold: 1, OpenWindow: time.Hour},
		}})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		recordTraffic(s)
		recordPeerServed(s)
		st := &s.cluster.Stats
		st.Hits.Add(5)
		st.Misses.Add(2)
		st.Degrades.Add(1)
		st.Hedges.Add(3)
		st.HedgeWins.Add(1)
		st.Offers.Add(2)
		st.OfferErrors.Add(1)
		for i, p := range s.cluster.PeerStores() {
			ps := &p.Stats
			ps.Hits.Add(uint64(4 + i))
			ps.Misses.Add(uint64(1 + i))
			ps.Errors.Add(uint64(2 * i))
			ps.Corrupt.Add(1)
			ps.Rejected.Add(uint64(i))
			ps.Fills.Add(2)
			if p.Addr() == peerB {
				// Trip this peer's breaker: one failure at threshold 1.
				p.Breaker().Allow()
				p.Breaker().Record(false)
			}
		}
		checkGolden(t, "metrics_cluster.txt", metricsPage(t, s))
	})
}

// waitGauges waits until the pool and singleflight reach the given
// queued/active/in-flight counts.
func waitGauges(t *testing.T, s *Server, queued, active, inflight int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.pool.Queued() != queued || s.pool.Active() != active || s.group.InFlight() != inflight {
		if time.Now().After(deadline) {
			t.Fatalf("gauges queued=%d active=%d inflight=%d, want %d/%d/%d",
				s.pool.Queued(), s.pool.Active(), s.group.InFlight(), queued, active, inflight)
		}
		time.Sleep(time.Millisecond)
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("%s differs from the rendered page:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}
