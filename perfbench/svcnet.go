package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"perfstacks/internal/cluster"
	"perfstacks/internal/service"
)

// svcNode is one in-process simd node serving on a loopback port.
type svcNode struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	cancel context.CancelFunc
	served chan error
	timer  *handlerTimer // nil when untraced
}

// svcRing is one or more nodes (a consistent-hash ring when more than one)
// plus the HTTP client the load generator uses.
type svcRing struct {
	nodes   []*svcNode
	client  *http.Client
	token   string
	workers int // simulation workers over all nodes
}

// ringToken is the ring's shared peer bearer token.
const ringToken = "perfbench-ring-token"

// startRing starts n nodes configured by cfg; each node's CacheDir, when
// cfg has one, is cfg.CacheDir/node<i>. conns is the load generator's
// concurrency per node. A non-nil rec wraps every handler in a
// handlerTimer that records a span per request.
func startRing(n int, cfg service.Config, conns int, rec *recorder) (*svcRing, error) {
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	// conns bounds requests in flight, which the load generator's worker
	// count enforces. The transport may hold a few more idle connections:
	// a finished response returns its connection to the pool
	// asynchronously, and capping connections at conns made the next
	// request wait for that hand-back now and then.
	r := &svcRing{token: ringToken, client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2 * conns, DisableCompression: true,
	}}}
	for i := 0; i < n; i++ {
		c := cfg
		if cfg.CacheDir != "" {
			c.CacheDir = fmt.Sprintf("%s/node%d", cfg.CacheDir, i)
		}
		if n > 1 {
			c.Cluster = &cluster.Config{Peers: urls, Self: urls[i], AuthToken: ringToken, Seed: uint64(i + 1)}
		}
		ctx, cancel := context.WithCancel(context.Background())
		srv, err := service.New(ctx, c)
		if err != nil {
			cancel()
			for _, l := range lns[i:] {
				l.Close()
			}
			r.close()
			return nil, err
		}
		var h http.Handler = srv.Handler()
		node := &svcNode{srv: srv, url: urls[i], cancel: cancel, served: make(chan error, 1)}
		if rec != nil {
			node.timer = newHandlerTimer(h, rec)
			h = node.timer
		}
		node.hs = &http.Server{Handler: h, ErrorLog: discardLog}
		go func(ln net.Listener) { node.served <- node.hs.Serve(ln) }(lns[i])
		r.nodes = append(r.nodes, node)
		r.workers += max(1, c.Workers)
	}
	return r, nil
}

// close stops every node and waits for its listener goroutine to return.
func (r *svcRing) close() {
	for _, n := range r.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		n.hs.Shutdown(ctx) // a node that cannot drain in time is closed below
		cancel()
		n.hs.Close()
		n.cancel()
		n.srv.Close()
		<-n.served
	}
	r.client.CloseIdleConnections()
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	Code    int
	Body    []byte
	Key     string // X-Result-Key
	Latency time.Duration
}

// do sends one request. id, when non-zero, tags it for the handler timer.
func (r *svcRing) do(ctx context.Context, method, url string, body []byte, id int64, auth bool) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id != 0 {
		req.Header.Set(reqIDHeader, strconv.FormatInt(id, 10))
	}
	if auth {
		req.Header.Set("Authorization", "Bearer "+r.token)
	}
	t0 := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep := reply{Code: resp.StatusCode, Body: b, Key: resp.Header.Get("X-Result-Key"), Latency: time.Since(t0)}
	return rep, err
}

// simulate POSTs a /v1/simulate body to node i and requires a 200.
func (r *svcRing) simulate(ctx context.Context, i int, body []byte, id int64) (reply, error) {
	rep, err := r.do(ctx, http.MethodPost, r.nodes[i].url+"/v1/simulate", body, id, false)
	if err == nil && rep.Code != http.StatusOK {
		err = fmt.Errorf("status %d: %s", rep.Code, bytes.TrimSpace(rep.Body))
	}
	return rep, err
}

// scrape parses every node's /metrics and concatenates the series.
func (r *svcRing) scrape(ctx context.Context) ([]promSeries, error) {
	var all []promSeries
	for _, n := range r.nodes {
		rep, err := r.do(ctx, http.MethodGet, n.url+"/metrics", nil, 0, false)
		if err != nil {
			return nil, err
		}
		ss, err := parseProm(bytes.NewReader(rep.Body))
		if err != nil {
			return nil, err
		}
		all = append(all, ss...)
	}
	return all, nil
}

// reqIDHeader carries the benchmark's request id to the handler timer.
const reqIDHeader = "X-Perfbench-Req"

// handlerTimer is the traced run's middleware around service.Handler():
// while switched on (setTracing), it times each /v1/simulate request inside
// the server and records it as a span under the client's request span.
type handlerTimer struct {
	on   atomic.Bool
	next http.Handler
	rec  *recorder
	mu   sync.Mutex
	ns   map[int64]int64 // handler time by request id
}

func newHandlerTimer(next http.Handler, rec *recorder) *handlerTimer {
	return &handlerTimer{next: next, rec: rec, ns: map[int64]int64{}}
}

// setTracing switches the ring's handler timers on or off, so one ring can
// serve both sides of the tracing-overhead comparison.
func (r *svcRing) setTracing(on bool) {
	for _, n := range r.nodes {
		if n.timer != nil {
			n.timer.on.Store(on)
		}
	}
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() || r.URL.Path != "/v1/simulate" {
		h.next.ServeHTTP(w, r)
		return
	}
	id, _ := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64) // 0: untagged
	start := h.rec.now()
	h.next.ServeHTTP(w, r)
	end := h.rec.now()
	h.rec.add(span{ID: h.rec.newID(), Parent: id, Req: id, Name: "service.handler", Start: start, End: end})
	if id != 0 {
		h.mu.Lock()
		h.ns[id] = end - start
		h.mu.Unlock()
	}
}

// handlerNs collects the handler times recorded for ids across nodes.
func (r *svcRing) handlerNs() map[int64]int64 {
	out := map[int64]int64{}
	for _, n := range r.nodes {
		if n.timer == nil {
			continue
		}
		n.timer.mu.Lock()
		for k, v := range n.timer.ns {
			out[k] = v
		}
		n.timer.mu.Unlock()
	}
	return out
}
