// Package runner provides the one job executor behind every bulk-simulation
// front end (cmd/sweep, cmd/experiments, the experiment library, the
// sensitivity engine and simd): Pool. The batch entry points Run and RunTimed
// drive a short-lived Pool over jobs indexed 0..n-1 that write into
// caller-owned slots, so results come back in deterministic index order no
// matter how the scheduler interleaves them.
//
// The pool is a supervisor, not just a semaphore: a job that panics is
// recovered into a structured error instead of killing the process (one
// crashed configuration in a thousand-point sweep must not take down the
// other 999), and cancellation of the run context stops starting new jobs
// and is forwarded to running jobs so they can stop cooperatively. Jobs are
// never retried: a deterministic simulation that fails once fails again. The
// timed variant additionally records per-run wall time and ingestion
// throughput for machine-readable benchmark output.
package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// Workers clamps a requested pool size: zero or negative means GOMAXPROCS.
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return max(1, runtime.GOMAXPROCS(0))
}

// JobError records one job that failed.
type JobError struct {
	// Index is the job's 0..n-1 position.
	Index int `json:"index"`
	// Label identifies the job when the timed variant ran it.
	Label string `json:"label,omitempty"`
	// Err is the job's error (a *PanicError for recovered panics). Not
	// serialized; Message carries its text.
	Err error `json:"-"`
	// Message is Err's text, kept for JSON round-trips.
	Message string `json:"error"`
}

// Error implements the error interface.
func (e *JobError) Error() string {
	msg := e.Message
	if e.Err != nil {
		msg = e.Err.Error()
	}
	if e.Label != "" {
		return fmt.Sprintf("job %d (%s): %s", e.Index, e.Label, msg)
	}
	return fmt.Sprintf("job %d: %s", e.Index, msg)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// PanicError is a job panic converted to an error by the supervisor.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string { return fmt.Sprintf("job panicked: %v", e.Value) }

// Run executes job(ctx, 0)..job(ctx, n-1) on a short-lived Pool of at most
// `workers` goroutines and returns the failed jobs in index order (empty
// when everything succeeded). Each job writes its own result slot, so the
// caller observes index-ordered results regardless of scheduling; workers
// <= 1 (after clamping to n) runs the jobs one at a time in index order.
// Once ctx is canceled no new job starts; jobs not yet started are skipped
// silently (they are not failures), while already running jobs see the
// cancellation through their context and report whatever error they return.
func Run(ctx context.Context, workers, n int, job func(ctx context.Context, i int) error) []JobError {
	if n == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p := NewPool(PoolOptions{Workers: min(Workers(workers), n)})
	// The pool delivers ctx's error for a job it dequeues after cancellation
	// without running it; started tells those skips apart from failures.
	// Each slot is written by the job's worker before its done channel
	// fires, and read only after that receive.
	started := make([]bool, n)
	dones := make([]<-chan error, 0, n)
	for i := 0; i < n && ctx.Err() == nil; i++ {
		done, err := p.SubmitWait(ctx, func(jctx context.Context) error {
			started[i] = true
			return job(jctx, i)
		})
		if err != nil {
			break // canceled while waiting for a queue slot
		}
		dones = append(dones, done)
	}
	p.Close()

	var failed []JobError
	for i, done := range dones {
		if err := <-done; err != nil && started[i] {
			failed = append(failed, JobError{Index: i, Err: err, Message: err.Error()})
		}
	}
	return failed
}

// Stat records one timed job.
type Stat struct {
	// Label identifies the run (e.g. "mcf/BDW"); empty when the job never
	// started because the run was canceled before the pool reached it.
	Label string `json:"label"`
	// WallSeconds is the job's own wall-clock time.
	WallSeconds float64 `json:"wall_seconds"`
	// Uops is the number of uops the job simulated (0 when not applicable).
	Uops uint64 `json:"uops,omitempty"`
	// UopsPerSec is Uops / WallSeconds (0 when Uops is 0).
	UopsPerSec float64 `json:"uops_per_sec,omitempty"`
	// Err is the failure's text, empty on success.
	Err string `json:"error,omitempty"`
}

// Report aggregates a timed pool run for benchmark output.
type Report struct {
	// Workers is the pool size actually used.
	Workers int `json:"workers"`
	// WallSeconds is the whole pool's wall-clock time (not the sum of jobs).
	WallSeconds float64 `json:"wall_seconds"`
	// TotalUops sums the per-job uop counts.
	TotalUops uint64 `json:"total_uops"`
	// UopsPerSec is the aggregate throughput: TotalUops / WallSeconds.
	UopsPerSec float64 `json:"uops_per_sec"`
	// Jobs lists per-run stats in index order.
	Jobs []Stat `json:"jobs"`
	// Errors lists the jobs that failed, in index order (empty on a fully
	// clean run).
	Errors []JobError `json:"errors,omitempty"`
}

// Failed reports whether any job failed.
func (r *Report) Failed() bool { return len(r.Errors) > 0 }

// RunTimed is Run with per-job instrumentation: job returns a label, the
// number of uops it simulated and its error, and the report carries wall
// time, throughput and failures per job and in aggregate, in index order.
func RunTimed(ctx context.Context, workers, n int, job func(ctx context.Context, i int) (label string, uops uint64, err error)) Report {
	rep := Report{
		Workers: min(Workers(workers), n),
		Jobs:    make([]Stat, n),
	}
	start := time.Now()
	// Each job writes only its own Stat; Run returns after every job has.
	rep.Errors = Run(ctx, workers, n, func(jctx context.Context, i int) error {
		t0 := time.Now()
		label, uops, err := job(jctx, i)
		rep.Jobs[i] = Stat{Label: label, Uops: uops, WallSeconds: time.Since(t0).Seconds()}
		return err
	})
	rep.WallSeconds = time.Since(start).Seconds()
	for i := range rep.Errors {
		e := &rep.Errors[i]
		s := &rep.Jobs[e.Index]
		s.Err = e.Message
		e.Label = s.Label
	}
	for i := range rep.Jobs {
		s := &rep.Jobs[i]
		if s.Uops > 0 && s.WallSeconds > 0 {
			s.UopsPerSec = float64(s.Uops) / s.WallSeconds
		}
		rep.TotalUops += s.Uops
	}
	if rep.TotalUops > 0 && rep.WallSeconds > 0 {
		rep.UopsPerSec = float64(rep.TotalUops) / rep.WallSeconds
	}
	return rep
}

// WriteJSON emits the report as indented JSON, one trailing newline.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
