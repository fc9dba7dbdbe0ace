package sensitivity

import (
	"context"
	"fmt"
	"sync"

	"perfstacks/internal/resultcache"
	"perfstacks/internal/runner"
)

// RunCellFunc executes one plan cell and returns its complete result with
// provenance. It must honor ctx: a canceled context stops the cell (and the
// plan) promptly.
type RunCellFunc func(ctx context.Context, p *Plan, cell Cell) (CellOutcome, error)

// Progress reports one completed cell to an Orchestrator.OnCell observer.
type Progress struct {
	// Index is the cell's position in Plan.Cells.
	Index int
	// Done counts completed cells including this one; Total is len(Cells).
	Done, Total int
	// Cell is the completed cell.
	Cell Cell
	// CPI is the cell's measured CPI.
	CPI float64
	// Source is where the result came from (Source* constants).
	Source string
}

// Orchestrator runs a plan's cells through a per-cell runner on
// runner.Run — bounded concurrency, first-error cancellation, panic
// recovery — with serialized progress callbacks, then folds the outcomes
// into the ranked report.
type Orchestrator struct {
	// Run executes one cell (required).
	Run RunCellFunc
	// Concurrency bounds in-flight cells (<= 0 means runner.Workers(0),
	// i.e. GOMAXPROCS).
	Concurrency int
	// OnCell, when non-nil, observes completions in completion order. Calls
	// are serialized; Execute does not return until the last call has.
	OnCell func(Progress)
}

// Execute runs the plan to completion. On any cell error the remaining
// cells are canceled and the first error is returned — a partial plan is
// not a measurement, so no report is built (completed cells stay in
// whatever cache the runner populated, which is exactly what makes a retry
// cheap). A cell that panics is recovered by the pool and fails the plan
// with a *runner.PanicError; it does not cancel the other cells, so that
// error is returned once they have all run. Execute joins every in-flight
// cell before returning.
func (o *Orchestrator) Execute(ctx context.Context, p *Plan) (*Report, error) {
	if o.Run == nil {
		return nil, fmt.Errorf("sensitivity: Orchestrator.Run is nil")
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	outcomes := make([]CellOutcome, len(p.Cells))
	var (
		mu       sync.Mutex
		firstErr error
		done     int
	)
	// fail records the plan's first error; it runs under mu or after
	// runner.Run has returned.
	fail := func(i int, err error) {
		if firstErr == nil {
			cell := p.Cells[i]
			label := cell.Variant
			if cell.Param != "" {
				label = cell.Param + "/" + cell.Variant
			}
			firstErr = fmt.Errorf("sensitivity: cell %s: %w", label, err)
			cancel()
		}
	}
	failed := runner.Run(cctx, o.Concurrency, len(p.Cells), func(jctx context.Context, i int) error {
		out, err := o.Run(jctx, p, p.Cells[i])
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			fail(i, err)
			return err
		}
		outcomes[i] = out
		done++
		if o.OnCell != nil {
			o.OnCell(Progress{
				Index: i, Done: done, Total: len(p.Cells),
				Cell: p.Cells[i], CPI: out.Result.CPIOf(), Source: out.Source,
			})
		}
		return nil
	})
	// Every returned error already went through fail; a failure it has not
	// seen is a panic the pool recovered.
	if firstErr == nil && len(failed) > 0 {
		fail(failed[0].Index, failed[0].Err)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return BuildReport(p, outcomes)
}

// LocalRunner returns a RunCellFunc that executes cells in this process:
// resultcache.RunSPEC on the pool (inline when pool is nil), which serves
// the shared result cache first (when non-nil) and writes completed
// simulations back to it, so a re-run of the same plan — or any
// overlapping plan, sweep or simd request sharing the cache directory — is
// mostly cache hits.
func LocalRunner(pool *runner.Pool, cache *resultcache.Cache) RunCellFunc {
	return func(ctx context.Context, p *Plan, cell Cell) (CellOutcome, error) {
		var out CellOutcome
		job := func(jctx context.Context) error {
			opts := p.Opts
			opts.Context = jctx
			res, hit := resultcache.RunSPEC(cache, cell.Machine, p.Profile, p.Uops, opts)
			if res.Err != nil {
				return res.Err
			}
			out = CellOutcome{Result: &res, Source: SourceSim}
			if hit {
				out.Source = SourceCache
			}
			return nil
		}
		if pool == nil {
			err := job(ctx) // fills out; a return's operand order is unspecified
			return out, err
		}
		done, err := pool.SubmitWait(ctx, job)
		if err == nil {
			err = <-done
		}
		return out, err
	}
}
