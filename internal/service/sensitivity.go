package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"perfstacks/internal/config"
	"perfstacks/internal/export"
	"perfstacks/internal/resultcache"
	"perfstacks/internal/sensitivity"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// SensitivityRequest is the JSON body of POST /v1/sensitivity. It names a
// baseline machine and a generator workload, and optionally narrows the
// perturbation plan; the server expands it into one simulation cell per
// perturbed configuration and fans the cells through the same cache,
// singleflight and pool that serve /v1/simulate.
type SensitivityRequest struct {
	// Machine names the baseline configuration: BDW, KNL or SKX.
	Machine string `json:"machine"`
	// Workload generates the synthetic trace every cell replays.
	Workload *WorkloadSpec `json:"workload"`
	// Scheme selects wrong-path accounting: oracle (default), simple or
	// speculative.
	Scheme string `json:"scheme,omitempty"`
	// Warmup runs the first N uops of every cell without accounting.
	Warmup uint64 `json:"warmup,omitempty"`
	// Params narrows the plan to these parameter or group names (empty =
	// every tunable parameter).
	Params []string `json:"params,omitempty"`
	// Variants are the multiplicative scale factors per parameter (empty =
	// {0.5, 2}).
	Variants []float64 `json:"variants,omitempty"`
	// NoEndpoints drops the infinite/idealized endpoint cells, leaving only
	// the scaled variants (and no stack-bound cross-check).
	NoEndpoints bool `json:"no_endpoints,omitempty"`
	// Recompute bypasses the plan-level report cache and rebuilds the
	// report from the per-cell tier — repeats are then mostly cell-cache
	// hits, with a fresh Summary proving it.
	Recompute bool `json:"recompute,omitempty"`
}

// errPlanSaturated sheds a sensitivity request when every plan slot is
// occupied: a plan is hundreds of simulations, so plan admission is bounded
// separately from (and more tightly than) the per-simulation queue.
var errPlanSaturated = errors.New("service: all sensitivity plan slots are busy")

// sensPlan is a resolved sensitivity request: the expanded perturbation
// plan plus the content-addressed key of its finished report.
type sensPlan struct {
	plan      *sensitivity.Plan
	key       resultcache.Key
	recompute bool
}

// parseSensitivityRequest decodes and strictly validates a request body.
func parseSensitivityRequest(body io.Reader) (*SensitivityRequest, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req SensitivityRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("%w: decoding request: %v", sim.ErrBadValue, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after request object", sim.ErrBadValue)
	}
	return &req, nil
}

// resolveSensitivity expands the request into a validated plan. All errors
// are client errors: sensitivity.NewPlan wraps them in sim.ErrBadValue.
func (s *Server) resolveSensitivity(req *SensitivityRequest) (*sensPlan, error) {
	machineName := req.Machine
	if machineName == "" {
		machineName = "BDW"
	}
	m, err := config.ByName(machineName)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", sim.ErrBadValue, err)
	}
	if req.Workload == nil {
		return nil, fmt.Errorf("%w: sensitivity requires a generator workload", sim.ErrBadValue)
	}
	prof, ok := workload.SPECProfile(req.Workload.Profile)
	if !ok {
		return nil, fmt.Errorf("%w: unknown workload profile %q", sim.ErrBadValue, req.Workload.Profile)
	}
	opts := sim.Options{WarmupUops: req.Warmup}
	if opts.Scheme, err = sim.ParseScheme(req.Scheme); err != nil {
		return nil, err
	}
	p, err := sensitivity.NewPlan(m, prof, req.Workload.Uops, opts, sensitivity.PlanOptions{
		Params:      req.Params,
		Variants:    req.Variants,
		NoEndpoints: req.NoEndpoints,
	})
	if err != nil {
		return nil, err
	}
	key, err := p.Key()
	if err != nil {
		return nil, err
	}
	return &sensPlan{plan: p, key: key, recompute: req.Recompute}, nil
}

// sensitivity runs the full plan flow: parse → expand/validate → report
// cache → plan singleflight → bounded plan execution, every cell riding
// the /v1/simulate production path. ?stream=1 switches the response to
// NDJSON progress events.
func (s *Server) sensitivity(w http.ResponseWriter, r *http.Request) (int, error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	req, err := parseSensitivityRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return http.StatusBadRequest, err
	}
	sp, err := s.resolveSensitivity(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return http.StatusBadRequest, err
	}
	if r.URL.Query().Get("stream") == "1" {
		return s.streamSensitivity(w, r, sp)
	}

	payload, via, err := s.fetch(r.Context(), sp.key, !sp.recompute, func(ctx context.Context) ([]byte, error) {
		return s.producePlan(ctx, sp, nil)
	})
	if err != nil {
		return s.fail(w, r, err), err
	}
	if via == "hit" {
		s.metrics.plans[planReportHit].Add(1)
	}
	s.writeResult(w, sp.key, payload, via)
	return http.StatusOK, nil
}

// producePlan executes one plan under a plan slot and caches the finished
// report under the plan key. A failed (or canceled) plan caches nothing:
// partial reports never enter the cache, though every completed cell did —
// which is exactly what makes the retry cheap.
func (s *Server) producePlan(ctx context.Context, sp *sensPlan, onCell func(sensitivity.Progress)) ([]byte, error) {
	select {
	case s.planSem <- struct{}{}:
		defer func() { <-s.planSem }()
	default:
		return nil, errPlanSaturated
	}
	s.metrics.plans[planStarted].Add(1)
	start := time.Now()
	orch := &sensitivity.Orchestrator{Run: s.runPlanCell, Concurrency: s.workers, OnCell: onCell}
	rep, err := orch.Execute(ctx, sp.plan)
	if err != nil {
		s.metrics.plans[planFailed].Add(1)
		return nil, err
	}
	enc, err := json.Marshal(rep)
	if err != nil {
		s.metrics.plans[planFailed].Add(1)
		return nil, err
	}
	if err := s.cache.Put(sp.key, enc); err != nil {
		// A full disk degrades to recomputation, not failure.
		s.logf("simd: caching plan %s: %v", sp.key, err)
	}
	s.metrics.plans[planCompleted].Add(1)
	s.metrics.planWall.observe(time.Since(start))
	return enc, nil
}

// runPlanCell satisfies one plan cell through the same ladder as a
// /v1/simulate request: local cache, then cell-level singleflight into
// produce (peer rung and all). The one difference is admission — a cell
// waits for a pool slot (plan admission already happened at the plan
// level) instead of being shed, so a plan saturates the pool politely
// rather than failing halfway.
func (s *Server) runPlanCell(ctx context.Context, p *sensitivity.Plan, cell sensitivity.Cell) (sensitivity.CellOutcome, error) {
	key, err := resultcache.SimKey(cell.Machine, p.Profile, p.Uops, p.Opts)
	if err != nil {
		return sensitivity.CellOutcome{}, err
	}
	if payload, ok := s.cache.Get(key); ok {
		if res, _, err := export.DecodeResult(payload); err == nil {
			s.metrics.cellSource(sensitivity.SourceCache)
			return sensitivity.CellOutcome{Result: res, Source: sensitivity.SourceCache}, nil
		}
		// A corrupt entry degrades to recomputation.
	}
	cp := &plan{
		key:      key,
		machine:  cell.Machine,
		opts:     p.Opts,
		workload: p.Profile.Name,
		mkReader: func() (trace.Reader, error) {
			return trace.NewLimit(workload.NewGenerator(p.Profile), p.Uops), nil
		},
		wait: true,
	}
	payload, err, leader := s.group.Do(ctx, key, func(fctx context.Context) ([]byte, error) {
		return s.produce(fctx, cp)
	})
	if err != nil {
		return sensitivity.CellOutcome{}, err
	}
	res, _, err := export.DecodeResult(payload)
	if err != nil {
		return sensitivity.CellOutcome{}, err
	}
	source := sensitivity.SourceSim
	switch {
	case !leader:
		source = sensitivity.SourceCoalesced
	case cp.via == "peer":
		source = sensitivity.SourcePeer
	}
	s.metrics.cellSource(source)
	return sensitivity.CellOutcome{Result: res, Source: source}, nil
}

// streamEvent is one NDJSON line of a ?stream=1 response: a "cell"
// progress event per completed cell, then one "report" (or "error") event.
type streamEvent struct {
	Event   string          `json:"event"`
	Done    int             `json:"done,omitempty"`
	Total   int             `json:"total,omitempty"`
	Param   string          `json:"param,omitempty"`
	Variant string          `json:"variant,omitempty"`
	Kind    string          `json:"kind,omitempty"`
	Source  string          `json:"source,omitempty"`
	CPI     float64         `json:"cpi,omitempty"`
	Report  json.RawMessage `json:"report,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// streamSensitivity serves the ?stream=1 variant: progress events as the
// fan-out completes cells, then the full report as the final line. The
// stream runs outside the plan-level singleflight (an NDJSON body is a
// live view, not a shareable artifact) but its cells still coalesce with
// any concurrent identical work at the cell level.
func (s *Server) streamSensitivity(w http.ResponseWriter, r *http.Request, sp *sensPlan) (int, error) {
	enc := json.NewEncoder(w)
	if !sp.recompute {
		if payload, ok := s.cache.Get(sp.key); ok {
			s.metrics.plans[planReportHit].Add(1)
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("X-Cache", "hit")
			enc.Encode(streamEvent{Event: "report", Report: payload})
			return http.StatusOK, nil
		}
	}
	flusher, _ := w.(http.Flusher)
	started := false
	onCell := func(pr sensitivity.Progress) {
		if !started {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("X-Cache", "miss")
			started = true
		}
		enc.Encode(streamEvent{
			Event: "cell", Done: pr.Done, Total: pr.Total,
			Param: pr.Cell.Param, Variant: pr.Cell.Variant, Kind: pr.Cell.Kind,
			Source: pr.Source, CPI: pr.CPI,
		})
		if flusher != nil {
			flusher.Flush()
		}
	}
	payload, err := s.producePlan(r.Context(), sp, onCell)
	switch {
	case err == nil:
		if !started {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("X-Cache", "miss")
		}
		enc.Encode(streamEvent{Event: "report", Report: payload})
		return http.StatusOK, nil
	case errors.Is(err, errPlanSaturated) && !started:
		return s.fail(w, r, err), err
	case r.Context().Err() != nil:
		s.metrics.canceled.Add(1)
		return statusClientClosed, err
	default:
		// Cells may already be on the wire; the error becomes the stream's
		// terminal event rather than a status code the client cannot see.
		if !started {
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		enc.Encode(streamEvent{Event: "error", Error: err.Error()})
		s.logf("simd: %s (stream): %v", r.URL.Path, err)
		return http.StatusOK, err
	}
}
