package main

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestTailQNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, tail float64
	}{
		{1000, 0.99, 0.99}, // 10 samples beyond p99
		{999, 0.99, 0.9},   // 9.99 beyond p99: fall back to p90
		{10000, 0.999, 0.999},
		{10000, 0.99, 0.99}, // never above the quantile asked for
		{100, 0.99, 0.9},
		{99, 0.9, 0.5},
		{19, 0.9, 0},
	} {
		if got := tailQ(c.n, c.want); got != c.tail {
			t.Errorf("tailQ(%d, %v) = %v, want %v", c.n, c.want, got, c.tail)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // reversed: summarize sorts
	}
	s := summarize(xs, 0.99)
	if s.N != 1000 || s.P50 != 500 || s.TailQ != 0.99 || s.Tail != 990 {
		t.Fatalf("summarize = %+v", s)
	}
}

func TestWindowedQuantileIgnoresOneBadWindow(t *testing.T) {
	var at []time.Duration
	var lat []float64
	for w := 0; w < 5; w++ {
		base := 1.0
		if w == 2 {
			base = 50 // one second of host stall
		}
		for i := 0; i < 100; i++ {
			at = append(at, time.Duration(w)*time.Second+time.Duration(i)*time.Millisecond)
			lat = append(lat, base+float64(i)/1000)
		}
	}
	// Ten samples cannot carry a p90, so this window is left out.
	for i := 0; i < 10; i++ {
		at = append(at, 7*time.Second)
		lat = append(lat, 1000)
	}
	p90, n := windowedQuantile(at, lat, time.Second, 0.9)
	if n != 5 || math.Abs(p90-1.089) > 1e-9 {
		t.Fatalf("windowed p90 = %v over %d windows, want 1.089 over 5", p90, n)
	}
}

func TestIQRShareMatchesPythonExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := iqrShare(xs); math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Fatalf("iqrShare = %v", got)
	}
	if xs[0] != 10 {
		t.Fatal("iqrShare reordered its input")
	}
}

// fakeClock advances only when a sender waits or a request takes time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
	t0  time.Time
}

func (c *fakeClock) Now() time.Time { return c.t0 }
func (c *fakeClock) Since(time.Time) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}
func (c *fakeClock) SleepUntil(_ time.Time, due time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = max(c.now, due)
}
func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
}

func TestOpenLoopTimesFromScheduledSend(t *testing.T) {
	clk := &fakeClock{}
	ms := time.Millisecond
	due := []time.Duration{0, 1 * ms, 2 * ms, 10 * ms}
	// One connection, 3 ms per request: requests 1 and 2 queue behind the
	// first, and their latency counts the wait from when they were due.
	got := openLoop(context.Background(), clk, due, 1, func(int) bool { clk.advance(3 * ms); return true })
	wantLate := []time.Duration{0, 2 * ms, 4 * ms, 0}
	wantLat := []time.Duration{3 * ms, 5 * ms, 7 * ms, 3 * ms}
	for i, s := range got {
		if !s.OK || s.Late() != wantLate[i] || s.Latency() != wantLat[i] {
			t.Errorf("request %d: late %v latency %v ok %v, want %v %v", i, s.Late(), s.Latency(), s.OK, wantLate[i], wantLat[i])
		}
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	clk := &fakeClock{}
	got := openLoop(ctx, clk, make([]time.Duration, 10), 2, func(i int) bool {
		if i == 3 {
			cancel()
		}
		return true
	})
	sent := 0
	for _, s := range got {
		if !s.Skipped {
			sent++
		}
	}
	if sent >= 10 {
		t.Fatalf("all %d requests sent after cancel", sent)
	}
}

func TestOpenLoopZeroScheduleIsClosedLoop(t *testing.T) {
	clk := &fakeClock{}
	ms := time.Millisecond
	// Everything due at once over one connection, 3 ms per request: each
	// request is sent the moment the one before it returns.
	got := openLoop(context.Background(), clk, make([]time.Duration, 3), 1, func(int) bool { clk.advance(3 * ms); return true })
	for i, s := range got {
		if s.Sent != time.Duration(i)*3*ms || s.Done != time.Duration(i+1)*3*ms {
			t.Errorf("request %d: sent %v done %v, want %v %v", i, s.Sent, s.Done, time.Duration(i)*3*ms, time.Duration(i+1)*3*ms)
		}
	}
}

func TestSteadyRateLeavesOutTheDrain(t *testing.T) {
	ms := time.Millisecond
	o := func(sent, done time.Duration, ok bool) outcome {
		return outcome{sample: sample{Sent: sent, Done: done, OK: ok}}
	}
	// The last send is at 10 ms: three requests were served by then (one
	// more failed), and the one finishing at 25 ms is the drain.
	outs := []outcome{o(0, 4*ms, true), o(0, 6*ms, false), o(4*ms, 9*ms, true), o(6*ms, 10*ms, true), o(10*ms, 25*ms, true)}
	if got := steadyRate(outs); math.Abs(got-300) > 1e-9 {
		t.Fatalf("steadyRate = %v, want 300/s", got)
	}
}

func TestMixGenColdRequestsAreDistinct(t *testing.T) {
	st := &mixedState{traceFiles: []string{"a", "b", "c"}, bodies: make([][]byte, 4), payloads: make([][]byte, 4)}
	g := newMixGen(rand.New(rand.NewSource(3)), st)
	seen := map[string]bool{}
	traces := 0
	for i := 0; i < 20_000; i++ {
		req := g.coldReq()
		k := string(mustJSON(req))
		if seen[k] {
			t.Fatalf("cold request %d repeats an earlier key: %s", i, k)
		}
		seen[k] = true
		if req.TracePath != "" {
			traces++
		}
	}
	if traces != 5000 {
		t.Fatalf("%d trace-file requests in 20000, want every fourth", traces)
	}
}

func TestPoissonScheduleIsSeededAndNearRate(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 1000, 10*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 1000, 10*time.Second)
	if len(a) != len(b) || a[len(a)-1] != b[len(b)-1] {
		t.Fatal("same seed gave different schedules")
	}
	if n := len(a); n < 9500 || n > 10500 {
		t.Fatalf("%d arrivals in 10 s at 1000/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 10*time.Second {
			t.Fatalf("schedule not sorted within the window at %d", i)
		}
	}
}

func TestSelfTimesSubtractMergedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 15, End: 25},
	}
	got := selfTimes(spans)
	// parent: 100 − |[10,50) ∪ [90,100)| = 100 − 50
	if got["parent"] != 50 {
		t.Errorf("parent self = %d, want 50", got["parent"])
	}
	// children: (20 − 10) + 30 + 30
	if got["child"] != 70 {
		t.Errorf("child self = %d, want 70", got["child"])
	}
	if got["grandchild"] != 10 {
		t.Errorf("grandchild self = %d, want 10", got["grandchild"])
	}
}

func TestRecorderNilIsNoop(t *testing.T) {
	var r *recorder
	r.add(span{Name: "x"})
	if r.newID() != 0 || r.now() != 0 {
		t.Fatal("nil recorder should be inert")
	}
}

func TestRecorderCapCountsDroppedSpans(t *testing.T) {
	r := newRecorder(2)
	for i := 0; i < 5; i++ {
		r.add(span{ID: r.newID(), Name: "s", Start: 0, End: 10})
	}
	if len(r.spans) != 2 || r.dropped != 3 || r.total["s"] != 50 || r.count["s"] != 5 {
		t.Fatalf("kept %d dropped %d total %d count %d", len(r.spans), r.dropped, r.total["s"], r.count["s"])
	}
}

const metricsText = `# HELP simd_requests_total Requests served, by HTTP status code.
# TYPE simd_requests_total counter
simd_requests_total{code="200"} 41
simd_requests_total{code="429"} 1
simd_cache_hits_total{tier="mem"} 30
simd_cache_hits_total{tier="disk"} 5
simd_cache_misses_total 7
simd_request_seconds_sum 0.125
simd_peer_requests_total{peer="http://127.0.0.1:1",outcome="hit"} 3
simd_peer_requests_total{peer="http://a\"b",outcome="miss"} 2
`

func TestParseProm(t *testing.T) {
	ss, err := parseProm(strings.NewReader(metricsText))
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 8 {
		t.Fatalf("parsed %d series, want 8", len(ss))
	}
	for _, c := range []struct {
		name  string
		match map[string]string
		want  float64
	}{
		{"simd_requests_total", nil, 42},
		{"simd_requests_total", map[string]string{"code": "429"}, 1},
		{"simd_cache_hits_total", map[string]string{"tier": "disk"}, 5},
		{"simd_cache_misses_total", nil, 7},
		{"simd_request_seconds_sum", nil, 0.125},
		{"simd_peer_requests_total", map[string]string{"peer": `http://a"b`}, 2},
		{"simd_peer_requests_total", map[string]string{"outcome": "hit"}, 3},
		{"absent_total", nil, 0},
	} {
		if got := promSum(ss, c.name, c.match); got != c.want {
			t.Errorf("promSum(%s, %v) = %v, want %v", c.name, c.match, got, c.want)
		}
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	for _, bad := range []string{"novalue\n", "x{a=\"1\" 3\n", "x{a=1} 3\n", "x nan-ish\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted malformed input", bad)
		}
	}
}
