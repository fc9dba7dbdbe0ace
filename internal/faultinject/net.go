package faultinject

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"perfstacks/internal/splitmix"
)

// NetMode selects the network fault a Transport injects for one host.
// Modes model the distinct ways a peer fetch dies in production, each of
// which the cluster layer must degrade through, never fail on.
type NetMode int

const (
	// NetNone passes requests through untouched.
	NetNone NetMode = iota
	// NetRefuse fails the exchange before any bytes move — a refused dial
	// or unroutable peer.
	NetRefuse
	// NetLatency delays the exchange by the configured latency before
	// letting it proceed — a slow but correct peer (the hedge's reason to
	// exist). The delay respects the request context.
	NetLatency
	// NetTruncate cuts the response body at a seed-chosen offset — a torn
	// transfer that must fail entry verification downstream.
	NetTruncate
	// NetBitFlip flips one seed-chosen bit in the response body — silent
	// wire corruption that must fail entry verification downstream.
	NetBitFlip
	// NetStall delivers response headers and then blocks every body read
	// until the request context ends — the half-dead peer that accepts
	// connections but never answers; only per-attempt deadlines save the
	// caller.
	NetStall
)

// String names the mode for test logs.
func (m NetMode) String() string {
	switch m {
	case NetNone:
		return "none"
	case NetRefuse:
		return "refuse"
	case NetLatency:
		return "latency"
	case NetTruncate:
		return "truncate"
	case NetBitFlip:
		return "bitflip"
	case NetStall:
		return "stall"
	}
	return "invalid"
}

// NetFaults is the shared, mutable fault table behind one or more
// Transports: tests flip a host's mode mid-flight to model a peer dying,
// recovering, or flapping. All methods are safe for concurrent use.
type NetFaults struct {
	mu      sync.Mutex
	modes   map[string]NetMode
	latency time.Duration
	rng     splitmix.Source
}

// NewNetFaults builds an empty fault table; offsets for truncation and bit
// flips derive deterministically from seed in call order.
func NewNetFaults(seed uint64) *NetFaults {
	return &NetFaults{modes: make(map[string]NetMode), latency: 50 * time.Millisecond, rng: splitmix.New(seed)}
}

// Set assigns host's fault mode (host as in URL.Host, "ip:port").
func (f *NetFaults) Set(host string, m NetMode) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.modes[host] = m
}

// SetLatency configures the NetLatency delay (default 50ms).
func (f *NetFaults) SetLatency(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latency = d
}

// mode reads host's current fault mode and the latency knob.
func (f *NetFaults) mode(host string) (NetMode, time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.modes[host], f.latency
}

// draw produces the next deterministic value in [0, n).
func (f *NetFaults) draw(n int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Intn(n)
}

// Transport is an http.RoundTripper that injects the table's fault for
// each request's target host, delegating clean exchanges to Base. It is
// the network counterpart of ByteReader: feed it to the cluster layer's
// HTTP client to prove every wire fault degrades instead of propagating.
type Transport struct {
	// Base performs real exchanges (nil = http.DefaultTransport).
	Base http.RoundTripper
	// Faults is the shared mode table.
	Faults *NetFaults
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	mode, latency := t.Faults.mode(req.URL.Host)
	if mode == NetRefuse {
		return nil, fmt.Errorf("%w: dial %s: connection refused", ErrInjected, req.URL.Host)
	}
	if mode == NetLatency {
		timer := time.NewTimer(latency)
		select {
		case <-req.Context().Done():
			timer.Stop()
			return nil, fmt.Errorf("%w: %v while latency-delayed", ErrInjected, req.Context().Err())
		case <-timer.C:
		}
	}
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	switch mode {
	case NetTruncate:
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		cut := 0
		if len(body) > 0 {
			cut = t.Faults.draw(len(body))
		}
		body = body[:cut]
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
		resp.Header.Del("Content-Length")
	case NetBitFlip:
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		if len(body) > 0 {
			body[t.Faults.draw(len(body))] ^= byte(1 << t.Faults.draw(8))
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
	case NetStall:
		resp.Body = &stalledBody{underlying: resp.Body, ctx: req.Context()}
	}
	return resp, nil
}

// stalledBody delivers headers but never bytes: reads block until the
// request context ends.
type stalledBody struct {
	underlying io.ReadCloser
	ctx        context.Context
}

// Read implements io.Reader: it blocks until the request is abandoned.
func (s *stalledBody) Read([]byte) (int, error) {
	<-s.ctx.Done()
	return 0, fmt.Errorf("%w: stalled read: %v", ErrInjected, s.ctx.Err())
}

// Close implements io.Closer, releasing the real connection.
func (s *stalledBody) Close() error { return s.underlying.Close() }
