package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"perfstacks/internal/faultinject"
	"perfstacks/internal/resultcache"
)

// stubToken is the ring bearer token every stub peer demands, so these
// tests double as proof the client side sends it on every exchange.
const stubToken = "ring-secret"

// stubPeer is a minimal in-memory peer speaking the /v1/peer/result
// protocol: entry-framed bodies, 404 misses, 204 fills, 403 for any
// request missing the ring token.
type stubPeer struct {
	ts *httptest.Server

	mu      sync.Mutex
	entries map[string][]byte // hex key → payload
	gets    int
	puts    int
}

func newStubPeer(t *testing.T) *stubPeer {
	t.Helper()
	p := &stubPeer{entries: make(map[string][]byte)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+PeerPath+"{key}", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Authorization") != "Bearer "+stubToken {
			w.WriteHeader(http.StatusForbidden)
			return
		}
		p.mu.Lock()
		payload, ok := p.entries[r.PathValue("key")]
		p.gets++
		p.mu.Unlock()
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		w.Write(resultcache.EncodeEntry(payload))
	})
	mux.HandleFunc("PUT "+PeerPath+"{key}", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Authorization") != "Bearer "+stubToken {
			w.WriteHeader(http.StatusForbidden)
			return
		}
		frame, err := io.ReadAll(r.Body)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		payload, err := resultcache.DecodeEntry(frame)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		p.mu.Lock()
		p.entries[r.PathValue("key")] = payload
		p.puts++
		p.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	})
	p.ts = httptest.NewServer(mux)
	t.Cleanup(p.ts.Close)
	return p
}

func (p *stubPeer) store(k resultcache.Key, payload []byte) {
	p.mu.Lock()
	p.entries[k.String()] = payload
	p.mu.Unlock()
}

func (p *stubPeer) host() string { return strings.TrimPrefix(p.ts.URL, "http://") }

// testConfig builds a fast-failing config for two stub peers plus a
// virtual self address, over a fault-injection transport.
func testConfig(peers []*stubPeer, faults *faultinject.NetFaults) Config {
	addrs := []string{"http://self.invalid:1"}
	for _, p := range peers {
		addrs = append(addrs, p.ts.URL)
	}
	return Config{
		Peers:          addrs,
		Self:           "http://self.invalid:1",
		AuthToken:      stubToken,
		AttemptTimeout: 500 * time.Millisecond,
		Retries:        1,
		Backoff:        time.Millisecond,
		HedgeDelay:     25 * time.Millisecond,
		Breaker:        BreakerConfig{FailureThreshold: 3, OpenWindow: 50 * time.Millisecond},
		Transport:      &faultinject.Transport{Faults: faults},
		Seed:           42,
	}
}

// candidates mirrors Fetch's replica choice: the first two non-self peers
// in ring order, mapped back to the stubs, so tests can aim faults at "the
// peer Fetch will try first".
func candidates(t *testing.T, c *Cluster, peers []*stubPeer, k resultcache.Key) []*stubPeer {
	t.Helper()
	var out []*stubPeer
	for _, addr := range c.Ring().Replicas(k, len(c.Ring().Peers())) {
		for _, p := range peers {
			if p.ts.URL == addr {
				out = append(out, p)
			}
		}
	}
	if len(out) != len(peers) {
		t.Fatalf("mapped %d of %d stub peers", len(out), len(peers))
	}
	return out
}

func TestClusterValidation(t *testing.T) {
	if _, err := New(Config{Peers: []string{"http://a:1"}, Self: "http://a:1", AuthToken: "t"}); err == nil {
		t.Fatal("single-member cluster accepted")
	}
	if _, err := New(Config{Peers: []string{"http://a:1", "http://b:1"}, Self: "http://c:1", AuthToken: "t"}); err == nil {
		t.Fatal("self outside the membership accepted")
	}
	if _, err := New(Config{Peers: []string{"http://a:1", "http://b:1"}, Self: "http://a:1"}); err == nil {
		t.Fatal("cluster without an auth token accepted: the peer fill surface would be open to anyone")
	}
	if _, err := New(Config{Peers: []string{"http://a:1", "http://b:1"}, Self: "http://a:1", AuthToken: "t"}); err != nil {
		t.Fatalf("valid cluster rejected: %v", err)
	}
}

func TestClusterFetchHitMissAndPromote(t *testing.T) {
	peers := []*stubPeer{newStubPeer(t), newStubPeer(t)}
	faults := faultinject.NewNetFaults(1)
	c, err := New(testConfig(peers, faults))
	if err != nil {
		t.Fatal(err)
	}
	k := resultcache.KeyOf([]byte("fetch-hit"))
	payload := bytes.Repeat([]byte("result"), 50)
	cand := candidates(t, c, peers, k)
	cand[0].store(k, payload)

	got, outcome := c.Fetch(context.Background(), k)
	if outcome != FetchHit || !bytes.Equal(got, payload) {
		t.Fatalf("Fetch = %v, %d bytes; want hit with %d bytes", outcome, len(got), len(payload))
	}
	if c.Stats.Hits.Load() != 1 {
		t.Fatal("hit not counted")
	}

	// A key nobody holds is a definitive miss, not a degrade.
	if _, outcome := c.Fetch(context.Background(), resultcache.KeyOf([]byte("cold"))); outcome != FetchMiss {
		t.Fatalf("cold key outcome = %v, want FetchMiss", outcome)
	}
	if c.Stats.Misses.Load() != 1 || c.Stats.Degrades.Load() != 0 {
		t.Fatalf("miss/degrade = %d/%d, want 1/0", c.Stats.Misses.Load(), c.Stats.Degrades.Load())
	}
}

// TestClusterFailoverOnRefusedDial: a dead owner costs one failed exchange
// and the read fails over to the next replica immediately (no hedge timer
// wait), which serves the payload.
func TestClusterFailoverOnRefusedDial(t *testing.T) {
	peers := []*stubPeer{newStubPeer(t), newStubPeer(t)}
	faults := faultinject.NewNetFaults(2)
	c, err := New(testConfig(peers, faults))
	if err != nil {
		t.Fatal(err)
	}
	k := resultcache.KeyOf([]byte("failover"))
	payload := []byte("replica copy")
	cand := candidates(t, c, peers, k)
	cand[1].store(k, payload)
	faults.Set(cand[0].host(), faultinject.NetRefuse)

	got, outcome := c.Fetch(context.Background(), k)
	if outcome != FetchHit || !bytes.Equal(got, payload) {
		t.Fatalf("Fetch = %v, want failover hit", outcome)
	}
	// The failover read is not a hedge: no timer fired.
	if c.Stats.Hedges.Load() != 0 {
		t.Fatalf("hedges = %d, want 0 for immediate failover", c.Stats.Hedges.Load())
	}
}

// TestClusterHedgedRead: a slow (but alive) owner trips the hedge timer;
// the replica's copy wins and is counted as a hedge win.
func TestClusterHedgedRead(t *testing.T) {
	peers := []*stubPeer{newStubPeer(t), newStubPeer(t)}
	faults := faultinject.NewNetFaults(3)
	faults.SetLatency(2 * time.Second) // far beyond the 25ms hedge delay
	cfg := testConfig(peers, faults)
	cfg.AttemptTimeout = 3 * time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := resultcache.KeyOf([]byte("hedged"))
	payload := []byte("hedge wins")
	cand := candidates(t, c, peers, k)
	cand[0].store(k, payload) // owner has it, but is slow
	cand[1].store(k, payload)
	faults.Set(cand[0].host(), faultinject.NetLatency)

	start := time.Now()
	got, outcome := c.Fetch(context.Background(), k)
	wall := time.Since(start)
	if outcome != FetchHit || !bytes.Equal(got, payload) {
		t.Fatalf("Fetch = %v, want hedged hit", outcome)
	}
	if c.Stats.Hedges.Load() != 1 || c.Stats.HedgeWins.Load() != 1 {
		t.Fatalf("hedges/wins = %d/%d, want 1/1", c.Stats.Hedges.Load(), c.Stats.HedgeWins.Load())
	}
	// The slow owner must not have gated the request: the hedge served
	// well under the 2s injected latency.
	if wall > time.Second {
		t.Fatalf("hedged fetch took %v, want well under the owner's 2s latency", wall)
	}
}

// TestClusterCorruptTransfersDegrade: truncation and bit flips on every
// replica must fail verification and degrade — never serve corrupt bytes.
func TestClusterCorruptTransfersDegrade(t *testing.T) {
	for _, mode := range []faultinject.NetMode{faultinject.NetTruncate, faultinject.NetBitFlip} {
		t.Run(mode.String(), func(t *testing.T) {
			peers := []*stubPeer{newStubPeer(t), newStubPeer(t)}
			faults := faultinject.NewNetFaults(4)
			c, err := New(testConfig(peers, faults))
			if err != nil {
				t.Fatal(err)
			}
			k := resultcache.KeyOf([]byte("corrupt-" + mode.String()))
			payload := bytes.Repeat([]byte("precious"), 64)
			for _, p := range peers {
				p.store(k, payload)
				faults.Set(p.host(), mode)
			}
			got, outcome := c.Fetch(context.Background(), k)
			if outcome != FetchDegraded || got != nil {
				t.Fatalf("Fetch = %v (%d bytes), want degraded with nil payload", outcome, len(got))
			}
			var corrupt uint64
			for _, ps := range c.PeerStores() {
				corrupt += ps.Stats.Corrupt.Load()
			}
			if corrupt == 0 {
				t.Fatal("no corrupt transfer was counted")
			}
		})
	}
}

// TestClusterStalledReadsBounded: peers that accept and never answer cost
// at most the per-attempt deadlines, then degrade.
func TestClusterStalledReadsBounded(t *testing.T) {
	peers := []*stubPeer{newStubPeer(t), newStubPeer(t)}
	faults := faultinject.NewNetFaults(5)
	cfg := testConfig(peers, faults)
	cfg.AttemptTimeout = 200 * time.Millisecond
	cfg.Retries = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := resultcache.KeyOf([]byte("stalled"))
	for _, p := range peers {
		p.store(k, []byte("never arrives"))
		faults.Set(p.host(), faultinject.NetStall)
	}
	start := time.Now()
	_, outcome := c.Fetch(context.Background(), k)
	wall := time.Since(start)
	if outcome != FetchDegraded {
		t.Fatalf("Fetch = %v, want degraded", outcome)
	}
	// Two peers × two attempts × 200ms, plus backoff slack: the ladder
	// must not wait longer than the deadlines it configured.
	if wall > 2*time.Second {
		t.Fatalf("stalled peers held the request %v", wall)
	}
}

// TestClusterBreakerShortCircuits: once a dead peer's breaker opens,
// fetches stop paying for it (counted as rejected, not errors).
func TestClusterBreakerShortCircuits(t *testing.T) {
	peers := []*stubPeer{newStubPeer(t), newStubPeer(t)}
	faults := faultinject.NewNetFaults(6)
	cfg := testConfig(peers, faults)
	cfg.Breaker = BreakerConfig{FailureThreshold: 2, OpenWindow: time.Hour}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := resultcache.KeyOf([]byte("short-circuit"))
	cand := candidates(t, c, peers, k)
	faults.Set(cand[0].host(), faultinject.NetRefuse)
	faults.Set(cand[1].host(), faultinject.NetRefuse)

	for i := 0; i < 6; i++ {
		if _, outcome := c.Fetch(context.Background(), k); outcome != FetchDegraded {
			t.Fatalf("fetch %d: outcome %v, want degraded", i, outcome)
		}
	}
	var rejected uint64
	for _, ps := range c.PeerStores() {
		if got := ps.Breaker().State(); got != BreakerOpen {
			t.Fatalf("peer %s breaker %v, want open", ps.Addr(), got)
		}
		rejected += ps.Stats.Rejected.Load()
	}
	if rejected == 0 {
		t.Fatal("open breakers never rejected a fetch")
	}
}

// TestClusterOfferFillsOwner: offers land on the ring owner (and only the
// owner), entry-framed and verified.
func TestClusterOfferFillsOwner(t *testing.T) {
	peers := []*stubPeer{newStubPeer(t), newStubPeer(t)}
	faults := faultinject.NewNetFaults(7)
	c, err := New(testConfig(peers, faults))
	if err != nil {
		t.Fatal(err)
	}
	k := resultcache.KeyOf([]byte("offer"))
	payload := []byte("fresh simulation")
	cand := candidates(t, c, peers, k)

	c.Offer(context.Background(), k, payload)
	if c.Stats.Offers.Load() != 1 {
		t.Fatalf("offers = %d, want 1", c.Stats.Offers.Load())
	}
	cand[0].mu.Lock()
	stored, ok := cand[0].entries[k.String()]
	ownerPuts := cand[0].puts
	cand[0].mu.Unlock()
	if !ok || !bytes.Equal(stored, payload) || ownerPuts != 1 {
		t.Fatalf("owner did not receive the offer (ok=%v puts=%d)", ok, ownerPuts)
	}
	cand[1].mu.Lock()
	replicaPuts := cand[1].puts
	cand[1].mu.Unlock()
	if replicaPuts != 0 {
		t.Fatalf("non-owner received %d fills", replicaPuts)
	}

	// A dead owner makes the offer a counted no-op, never an error that
	// propagates.
	faults.Set(cand[0].host(), faultinject.NetRefuse)
	c.Offer(context.Background(), resultcache.KeyOf([]byte("offer")), payload)
	if c.Stats.OfferErrors.Load() != 1 {
		t.Fatalf("offer errors = %d, want 1", c.Stats.OfferErrors.Load())
	}
}

// TestPeerCancellationIsBreakerNeutral: Fetch's hedge/failover race
// cancels the losing replica's read. A lost race (or a gone client) says
// nothing about the loser's health, so a run of canceled fetches well past
// the failure threshold must leave the breaker closed and the per-peer
// error counter untouched — while a genuine failure still counts.
func TestPeerCancellationIsBreakerNeutral(t *testing.T) {
	peer := newStubPeer(t)
	faults := faultinject.NewNetFaults(8)
	faults.SetLatency(2 * time.Second) // alive but far slower than the callers' patience
	faults.Set(peer.host(), faultinject.NetLatency)
	cfg := Config{
		Peers:          []string{peer.ts.URL, "http://self.invalid:1"},
		Self:           "http://self.invalid:1",
		AuthToken:      stubToken,
		AttemptTimeout: 5 * time.Second,
		Retries:        -1,
		Transport:      &faultinject.Transport{Faults: faults},
	}
	p := NewPeerStore(peer.ts.URL, cfg.withDefaults())
	k := resultcache.KeyOf([]byte("hedge-loser"))

	for i := 0; i < 5; i++ { // well past the default threshold of 3
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		if _, err := p.get(ctx, k); err == nil {
			t.Fatalf("get %d: succeeded despite cancellation", i)
		}
		cancel()
	}
	if got := p.Breaker().State(); got != BreakerClosed {
		t.Fatalf("breaker %v after five canceled fetches, want closed", got)
	}
	if got := p.Stats.Errors.Load(); got != 0 {
		t.Fatalf("canceled fetches counted as %d peer errors", got)
	}

	// Real failures are still judged: refused dials trip the breaker.
	faults.Set(peer.host(), faultinject.NetRefuse)
	for i := 0; i < 3; i++ {
		p.get(context.Background(), k)
	}
	if got := p.Breaker().State(); got != BreakerOpen {
		t.Fatalf("breaker %v after three refused dials, want open", got)
	}
}

// TestPeerBackoffDelayCapped: the exponential shift saturates at
// maxBackoffShift, so an absurd retry budget cannot overflow the delay
// into negative (immediate) or multi-year sleeps.
func TestPeerBackoffDelayCapped(t *testing.T) {
	base := 25 * time.Millisecond
	cfg := Config{
		Peers:     []string{"http://a:1", "http://self.invalid:1"},
		Self:      "http://self.invalid:1",
		AuthToken: stubToken,
		Backoff:   base,
	}
	p := NewPeerStore("http://a:1", cfg.withDefaults())
	limit := base << maxBackoffShift
	for _, a := range []int{0, 1, maxBackoffShift, maxBackoffShift + 1, 62, 63, 1 << 20} {
		d := p.backoffDelay(a)
		if d <= 0 || d > limit {
			t.Fatalf("backoffDelay(%d) = %v, want in (0, %v]", a, d, limit)
		}
	}
}

// TestPeerStoreRoundTrip: get/put round-trip against a live stub peer —
// an empty peer is a definitive miss, and a filled key serves the exact
// payload.
func TestPeerStoreRoundTrip(t *testing.T) {
	peer := newStubPeer(t)
	cfg := Config{
		Peers:     []string{peer.ts.URL, "http://self.invalid:1"},
		Self:      "http://self.invalid:1",
		AuthToken: stubToken,
	}
	p := NewPeerStore(peer.ts.URL, cfg.withDefaults())
	ctx := context.Background()
	k := resultcache.KeyOf([]byte("peer-round-trip"))
	if _, err := p.get(ctx, k); !errors.Is(err, errPeerMiss) {
		t.Fatalf("get from an empty peer: %v, want errPeerMiss", err)
	}
	payload := []byte("via get/put")
	if err := p.put(ctx, k, payload); err != nil {
		t.Fatal(err)
	}
	got, err := p.get(ctx, k)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("get after put: %q, %v", got, err)
	}
}
