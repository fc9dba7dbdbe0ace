package service

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"perfstacks/internal/cluster"
	"perfstacks/internal/config"
	"perfstacks/internal/export"
	"perfstacks/internal/resultcache"
	"perfstacks/internal/runner"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
)

// Config sizes a Server.
type Config struct {
	// CacheDir is the on-disk result store ("" = memory tier only).
	CacheDir string
	// MemCacheBytes budgets the in-memory tier (<= 0 means 64 MiB).
	MemCacheBytes int64
	// Workers bounds concurrent simulations (<= 0 means GOMAXPROCS).
	Workers int
	// QueueDepth bounds admitted-but-not-running simulations (<= 0 means
	// one per worker). Beyond workers+queue, requests are shed with 429.
	QueueDepth int
	// JobTimeout bounds each simulation (0 = unbounded).
	JobTimeout time.Duration
	// MaxPlans bounds concurrent sensitivity plans (<= 0 means 2). A plan
	// is hundreds of simulations, so its admission is bounded separately
	// from — and more tightly than — the per-simulation queue.
	MaxPlans int
	// TraceDir roots trace_path lookups ("" disables file traces).
	TraceDir string
	// Cluster, when non-nil, joins this node to a consistent-hash ring of
	// simd peers: result keys have owners, local misses try the owner (and
	// a hedged replica) before cold simulation, and locally simulated
	// results are offered to their owner. Nil keeps the node byte-for-byte
	// single-node.
	Cluster *cluster.Config
	// Log receives operational messages (nil = log.Default).
	Log *log.Logger
}

// Server is the simd request-processing core, independent of any listener.
// The flow for a simulate request:
//
//	parse → canonical key → cache lookup → singleflight → bounded pool → sim
//
// Deduplication sits in front of admission deliberately: a thundering herd
// of identical requests occupies one queue slot, so saturation sheds only
// genuinely distinct work.
type Server struct {
	cache     *resultcache.Cache
	group     *resultcache.Group
	pool      *runner.Pool
	planSem   chan struct{} // sensitivity plan admission slots
	cluster   *cluster.Cluster
	peerToken string // the ring's shared bearer token (set iff clustered)
	traceDir  string
	metrics   *metrics
	logf      func(format string, args ...any)
	workers   int

	// runSim is the simulation entry point; tests swap it to count and
	// block simulations without burning CPU. runSMP is its gang-request
	// counterpart.
	runSim func(m config.Machine, tr trace.Reader, opts sim.Options) sim.Result
	runSMP func(m config.Machine, n int, mk func(tid int) trace.Reader, opts sim.Options) sim.SMPResult
}

// New builds a Server whose simulations run until base is canceled (cancel
// base to drain: producers stop cooperatively and report cancellation).
func New(base context.Context, cfg Config) (*Server, error) {
	memBudget := cfg.MemCacheBytes
	if memBudget <= 0 {
		memBudget = 64 << 20
	}
	var disk *resultcache.Disk
	if cfg.CacheDir != "" {
		var err error
		if disk, err = resultcache.NewDisk(cfg.CacheDir); err != nil {
			return nil, err
		}
	}
	logger := cfg.Log
	if logger == nil {
		logger = log.Default()
	}
	s := &Server{
		cache:    resultcache.New(resultcache.NewMemory(memBudget), disk),
		group:    resultcache.NewGroup(base),
		traceDir: cfg.TraceDir,
		metrics:  newMetrics(),
		logf:     logger.Printf,
		workers:  runner.Workers(cfg.Workers),
		runSim:   sim.Run,
		runSMP:   sim.RunSMP,
	}
	maxPlans := cfg.MaxPlans
	if maxPlans <= 0 {
		maxPlans = 2
	}
	s.planSem = make(chan struct{}, maxPlans)
	if cfg.Cluster != nil {
		cl, err := cluster.New(*cfg.Cluster)
		if err != nil {
			return nil, err
		}
		s.cluster = cl
		s.peerToken = cfg.Cluster.AuthToken
	}
	s.pool = runner.NewPool(runner.PoolOptions{
		Workers:    cfg.Workers,
		QueueDepth: cfg.QueueDepth,
		JobTimeout: cfg.JobTimeout,
	})
	return s, nil
}

// Close stops admission and waits for running simulations to finish. Cancel
// the base context first for a fast drain.
func (s *Server) Close() { s.pool.Close() }

// Handler returns the service mux: the API, health, metrics and profiling
// endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", s.timed(s.simulate))
	mux.HandleFunc("POST /v1/sensitivity", s.timed(s.sensitivity))
	if s.cluster != nil {
		// The peer-transfer surface exists only on ring members: a
		// single-node simd must expose exactly the pre-cluster routes (no
		// unauthenticated cache-write endpoint on a node that never asked
		// to be clustered).
		mux.HandleFunc("GET /v1/peer/result/{key}", s.requirePeerAuth(s.handlePeerGet))
		mux.HandleFunc("PUT /v1/peer/result/{key}", s.requirePeerAuth(s.handlePeerPut))
	}
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.serveMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// timed adapts an API endpoint that reports the status it resolved to:
// each request's code and wall time feed the request metrics, and
// server-side failures are logged.
func (s *Server) timed(serve func(w http.ResponseWriter, r *http.Request) (int, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		code, err := serve(w, r)
		s.metrics.observe(code, time.Since(start))
		if err != nil && code >= 500 {
			s.logf("simd: %s: %v", r.URL.Path, err)
		}
	}
}

// statusClientClosed is nginx's convention for "client closed request";
// it is recorded in metrics but never written to the (gone) client.
const statusClientClosed = 499

// simulate runs the full request flow and reports the status code it
// resolved to (the response, including errors, is already written).
func (s *Server) simulate(w http.ResponseWriter, r *http.Request) (int, error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	req, err := parseRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return http.StatusBadRequest, err
	}
	p, err := s.resolve(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return http.StatusBadRequest, err
	}

	payload, via, err := s.fetch(r.Context(), p.key, true, func(ctx context.Context) ([]byte, error) {
		return s.produce(ctx, p)
	})
	if err != nil {
		return s.fail(w, r, err), err
	}
	// A flight leader's plan records how its flight resolved ("peer" when a
	// ring replica served the bytes); a coalesced request never ran its own
	// plan and reports the generic "miss".
	if p.via != "" {
		via = p.via
	}
	s.writeResult(w, p.key, payload, via)
	return http.StatusOK, nil
}

// fetch returns k's payload from the cache (when cached is set) or from the
// one flight of produce shared by every concurrent request for k, counting
// a request coalesced onto another's flight; ctx is the request's context.
// disposition is "hit" or "miss".
func (s *Server) fetch(ctx context.Context, k resultcache.Key, cached bool, produce func(ctx context.Context) ([]byte, error)) (payload []byte, disposition string, err error) {
	if cached {
		if payload, ok := s.cache.Get(k); ok {
			return payload, "hit", nil
		}
	}
	payload, err, leader := s.group.Do(ctx, k, produce)
	if !leader {
		s.metrics.coalesced.Add(1)
	}
	return payload, "miss", err
}

// fail writes the response for a request whose flight failed and returns
// its status code: 429 with Retry-After when admission refused the work
// (pool full or closed, plan slots busy), 499 when the client went away
// (nothing is written), 504 on a timeout, 400 for a bad value that only
// surfaced at run time (e.g. a malformed trace file: still the client's
// error), 500 otherwise.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, err error) int {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, runner.ErrSaturated), errors.Is(err, runner.ErrPoolClosed), errors.Is(err, errPlanSaturated):
		s.metrics.shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		code = http.StatusTooManyRequests
	case r.Context().Err() != nil:
		s.metrics.canceled.Add(1)
		return statusClientClosed
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	case errors.Is(err, sim.ErrBadValue):
		code = http.StatusBadRequest
	}
	writeError(w, code, err)
	return code
}

// produce resolves one local cache miss down the degradation ladder: the
// ring owner (hedged to the next replica) when this node is not the key's
// authority, then local cold simulation. It executes inside the
// singleflight (at most once per key at a time) under ctx, which ends when
// the last interested client disconnects or the server drains.
//
// The peer rung runs before pool admission on purpose: a fetch costs
// network waiting, not CPU, so it must not occupy a simulation slot — and
// a saturated pool can still serve peer hits.
func (s *Server) produce(ctx context.Context, p *plan) ([]byte, error) {
	ownsSelf := false
	if s.cluster != nil {
		ownsSelf = s.cluster.OwnsSelf(p.key)
		if !ownsSelf {
			payload, outcome := s.cluster.Fetch(ctx, p.key)
			if outcome == cluster.FetchHit {
				// Promote into the local memory tier only: the owner holds
				// the durable copy, this node holds the hot one.
				s.cache.PromoteMem(p.key, payload)
				p.via = "peer"
				return payload, nil
			}
			// Miss or degraded: fall through to the local rungs. The
			// distinction is already counted in cluster.Stats.
		}
	}
	var payload []byte
	job := func(jctx context.Context) error {
		opts := p.opts
		opts.Context = jctx
		s.metrics.sims.Add(1)
		var res sim.Result
		if p.smpCores > 0 {
			res = s.simulateSMP(p, opts)
		} else {
			tr, err := p.mkReader()
			if err != nil {
				return err
			}
			res = s.runSim(p.machine, tr, opts)
		}
		if res.Err != nil {
			// Partial stacks must never enter the cache.
			return res.Err
		}
		enc, err := export.EncodeResult(&res, p.workload)
		if err != nil {
			return err
		}
		if err := s.cache.Put(p.key, enc); err != nil {
			// A full disk degrades to recomputation, not failure.
			s.logf("simd: caching %s: %v", p.key, err)
		}
		payload = enc
		return nil
	}
	var done <-chan error
	var err error
	if p.wait {
		done, err = s.pool.SubmitWait(ctx, job)
	} else {
		done, err = s.pool.Submit(ctx, job)
	}
	if err != nil {
		return nil, err
	}
	if err := <-done; err != nil {
		return nil, err
	}
	if s.cluster != nil && !ownsSelf {
		// This node simulated a key it does not own (cold entry plus a
		// dead, slow or empty owner): push the result to the owner so the
		// cluster's authority converges. Synchronous but bounded by the
		// peer attempt deadline, best-effort by contract — a failed offer
		// costs a counter, never the response.
		s.cluster.Offer(ctx, p.key, payload)
	}
	return payload, nil
}

// simulateSMP runs a gang request and folds the SMP result into the single
// result wire shape: the component-wise averaged stacks and FLOPS pass
// through, and the per-core pipeline statistics aggregate with counters
// summed and Cycles the gang wall time (the slowest core).
func (s *Server) simulateSMP(p *plan, opts sim.Options) sim.Result {
	smp := s.runSMP(p.machine, p.smpCores, p.mkSMP, opts)
	res := sim.Result{
		Machine: smp.Machine,
		Stacks:  smp.Stacks,
		FLOPS:   smp.FLOPS,
		Err:     smp.Err,
	}
	for _, st := range smp.PerCore {
		if st.Cycles > res.Stats.Cycles {
			res.Stats.Cycles = st.Cycles
		}
		res.Stats.Committed += st.Committed
		res.Stats.Loads += st.Loads
		res.Stats.Stores += st.Stores
		res.Stats.Branches += st.Branches
		res.Stats.Mispredicts += st.Mispredicts
		res.Stats.WrongPathUops += st.WrongPathUops
		res.Stats.SquashedUops += st.SquashedUops
		res.Stats.VFPUops += st.VFPUops
		res.Stats.FLOPs += st.FLOPs
		res.Stats.BarrierWaits += st.BarrierWaits
		res.Stats.ICacheStallCycles += st.ICacheStallCycles
	}
	return res
}

// retryAfter estimates in whole seconds when a shed client should try
// again: one drain interval per queued-jobs-per-worker, floor 1.
func (s *Server) retryAfter() int {
	q := s.pool.Queued()
	ra := 1 + q/s.workers
	if ra > 60 {
		ra = 60
	}
	return ra
}

// writeResult writes a cached or fresh result payload. The payload bytes
// are served verbatim from the cache, so identical requests receive
// byte-identical bodies regardless of which tier (or simulation) produced
// them.
func (s *Server) writeResult(w http.ResponseWriter, k resultcache.Key, payload []byte, disposition string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", disposition)
	w.Header().Set("X-Result-Key", hex.EncodeToString(k[:]))
	w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
	w.Write(payload)
}
