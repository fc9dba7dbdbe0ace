package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"perfstacks/internal/resultcache"
	"perfstacks/internal/splitmix"
)

// PeerPath is the peer-transfer endpoint; GET fetches an entry-framed
// result, PUT fills one. The trailing element is the hex cache key.
const PeerPath = "/v1/peer/result/"

// maxEntryBytes bounds one peer transfer. Result payloads are small
// (kilobytes of encoded stacks); the cap exists so a confused or malicious
// peer cannot make a reader buffer gigabytes.
const maxEntryBytes = 64 << 20

// errBreakerOpen reports a request refused locally because the peer's
// breaker is open (or its half-open probe slot is taken).
var errBreakerOpen = errors.New("cluster: breaker open")

// errPeerMiss distinguishes a healthy peer's definitive "not here" (404)
// from transport failures.
var errPeerMiss = errors.New("cluster: peer miss")

// PeerStats counts one peer's outcomes. All fields are atomics.
type PeerStats struct {
	// Hits counts verified payloads fetched from this peer.
	Hits atomic.Uint64
	// Misses counts definitive 404s from this peer.
	Misses atomic.Uint64
	// Errors counts failed exchanges: dials, timeouts, bad statuses.
	Errors atomic.Uint64
	// Corrupt counts fetched frames that failed entry verification.
	Corrupt atomic.Uint64
	// Rejected counts requests refused locally by the open breaker.
	Rejected atomic.Uint64
	// Fills counts successful Put transfers to this peer.
	Fills atomic.Uint64
}

// PeerStore is the remote result-cache tier: get/put against one simd
// peer's /v1/peer/result endpoint. Every fetched frame is verified through
// resultcache.DecodeEntry — the same corrupted-entry path a local disk read
// takes — before any byte is returned, so a truncated or bit-flipped
// transfer is a retryable error, never a served result.
//
// Failure handling per get: the peer's circuit breaker gates admission,
// each attempt runs under its own deadline, and transient failures retry
// with jittered exponential backoff (bounded). A definitive 404 returns
// immediately — "the owner does not have it" is an answer, not a failure.
type PeerStore struct {
	addr    string
	token   string // ring bearer token, sent on every exchange
	hc      *http.Client
	breaker *Breaker

	attemptTimeout time.Duration
	retries        int
	backoff        time.Duration

	jitterMu sync.Mutex
	jitter   splitmix.Source

	// Stats counts this peer's outcomes (exposed via Cluster metrics).
	Stats PeerStats
}

// NewPeerStore builds a store against one peer base URL (no trailing
// slash). cfg supplies the shared failure-handling knobs.
func NewPeerStore(addr string, cfg Config) *PeerStore {
	cfg = cfg.withDefaults()
	return &PeerStore{
		addr:           addr,
		token:          cfg.AuthToken,
		hc:             &http.Client{Transport: cfg.Transport},
		breaker:        NewBreaker(cfg.Breaker),
		attemptTimeout: cfg.AttemptTimeout,
		retries:        cfg.Retries,
		backoff:        cfg.Backoff,
		jitter:         splitmix.New(cfg.Seed ^ hashAddr(addr)),
	}
}

// Addr returns the peer's base URL.
func (p *PeerStore) Addr() string { return p.addr }

// Breaker exposes the peer's circuit breaker (metrics and tests).
func (p *PeerStore) Breaker() *Breaker { return p.breaker }

// get fetches and verifies k from the peer: breaker admission, bounded
// attempts with jittered backoff, per-attempt deadlines. The error is nil
// on a verified hit, errPeerMiss on a definitive 404, errBreakerOpen when
// refused locally, and the last attempt's failure otherwise.
func (p *PeerStore) get(ctx context.Context, k resultcache.Key) ([]byte, error) {
	if !p.breaker.Allow() {
		p.Stats.Rejected.Add(1)
		return nil, errBreakerOpen
	}
	var lastErr error
	for a := 0; a <= p.retries; a++ {
		if a > 0 && !p.sleepBackoff(ctx, a-1) {
			break // canceled while backing off
		}
		payload, err := p.attemptGet(ctx, k)
		switch {
		case err == nil:
			p.breaker.Record(true)
			p.Stats.Hits.Add(1)
			return payload, nil
		case errors.Is(err, errPeerMiss):
			// A healthy response: the peer answered, it just has nothing.
			p.breaker.Record(true)
			p.Stats.Misses.Add(1)
			return nil, err
		}
		if ctx.Err() != nil {
			// The caller canceled — a lost hedge race, a client gone. The
			// aborted exchange says nothing about the peer's health, so it
			// must not count toward tripping the breaker (or the error
			// stats a human reads as "this peer is failing").
			break
		}
		if errors.Is(err, resultcache.ErrEntryCorrupt) {
			p.Stats.Corrupt.Add(1)
		}
		p.Stats.Errors.Add(1)
		lastErr = err
	}
	if ctx.Err() != nil {
		p.breaker.Cancel()
		if lastErr == nil {
			lastErr = ctx.Err()
		}
		return nil, lastErr
	}
	p.breaker.Record(false)
	return nil, lastErr
}

// attemptGet runs one GET exchange under its own deadline.
func (p *PeerStore) attemptGet(ctx context.Context, k resultcache.Key) ([]byte, error) {
	actx, cancel := context.WithTimeout(ctx, p.attemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, p.addr+PeerPath+k.String(), nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: building request: %w", err)
	}
	req.Header.Set("Authorization", "Bearer "+p.token)
	resp, err := p.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: GET %s: %w", p.addr, err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		// Fall through to the verified read below.
	case http.StatusNotFound:
		return nil, errPeerMiss
	default:
		return nil, fmt.Errorf("cluster: GET %s: unexpected status %d", p.addr, resp.StatusCode)
	}
	frame, err := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes+1))
	if err != nil {
		return nil, fmt.Errorf("cluster: reading %s: %w", p.addr, err)
	}
	if len(frame) > maxEntryBytes {
		return nil, fmt.Errorf("cluster: entry from %s exceeds %d bytes", p.addr, maxEntryBytes)
	}
	// The one verification that matters: the frame re-checks through the
	// same digest path a local disk entry does. A stalled or cut transfer,
	// a flipped bit, or a garbage body all land here, not in a served
	// result.
	payload, err := resultcache.DecodeEntry(frame)
	if err != nil {
		return nil, fmt.Errorf("cluster: entry from %s: %w", p.addr, err)
	}
	return payload, nil
}

// put transfers one entry-framed payload to the peer (single attempt —
// fills are best-effort; the next reader heals a dropped one by fetching
// from whoever simulated it, or by re-simulating).
func (p *PeerStore) put(ctx context.Context, k resultcache.Key, payload []byte) error {
	if !p.breaker.Allow() {
		p.Stats.Rejected.Add(1)
		return errBreakerOpen
	}
	actx, cancel := context.WithTimeout(ctx, p.attemptTimeout)
	defer cancel()
	frame := resultcache.EncodeEntry(payload)
	req, err := http.NewRequestWithContext(actx, http.MethodPut, p.addr+PeerPath+k.String(), bytes.NewReader(frame))
	if err != nil {
		p.breaker.Record(false)
		return fmt.Errorf("cluster: building fill: %w", err)
	}
	req.Header.Set("Authorization", "Bearer "+p.token)
	resp, err := p.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// Canceled by the caller, not failed by the peer: release the
			// admission without judging the peer's health.
			p.breaker.Cancel()
			return fmt.Errorf("cluster: PUT %s: %w", p.addr, err)
		}
		p.breaker.Record(false)
		p.Stats.Errors.Add(1)
		return fmt.Errorf("cluster: PUT %s: %w", p.addr, err)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		p.breaker.Record(false)
		p.Stats.Errors.Add(1)
		return fmt.Errorf("cluster: PUT %s: unexpected status %d", p.addr, resp.StatusCode)
	}
	p.breaker.Record(true)
	p.Stats.Fills.Add(1)
	return nil
}

// maxBackoffShift caps the exponential doubling so a generous retry
// budget cannot shift the base delay into overflow: the delay saturates
// instead of wrapping into negative or multi-year sleeps.
const maxBackoffShift = 16

// backoffDelay computes the a-th retry delay — exponential from the base
// with equal jitter (half deterministic, half seeded-random), so a herd of
// nodes retrying against one recovering peer spreads out instead of
// re-synchronizing.
func (p *PeerStore) backoffDelay(a int) time.Duration {
	if p.backoff <= 0 {
		return 0
	}
	d := p.backoff << min(a, maxBackoffShift)
	half := d / 2
	p.jitterMu.Lock()
	d = half + time.Duration(p.jitter.Next()%uint64(half+1))
	p.jitterMu.Unlock()
	return d
}

// sleepBackoff waits out the a-th retry delay. Returns false if ctx ended
// first.
func (p *PeerStore) sleepBackoff(ctx context.Context, a int) bool {
	d := p.backoffDelay(a)
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// hashAddr folds a peer address into a seed perturbation so per-peer
// jitter streams differ even under one configured seed.
func hashAddr(addr string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= 1099511628211
	}
	return h
}
