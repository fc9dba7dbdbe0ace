package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// ErrSaturated is returned by Pool.Submit when the bounded queue is full:
// the admission-control signal the service layer converts into a 429 with
// Retry-After. Rejecting at the queue keeps latency bounded for the work
// already admitted instead of letting an unbounded backlog grow.
var ErrSaturated = errors.New("runner: pool saturated")

// ErrPoolClosed is returned by Pool.Submit after Close: the pool is
// draining and accepts no new work (the graceful-shutdown path).
var ErrPoolClosed = errors.New("runner: pool closed")

// PoolOptions configures a Pool.
type PoolOptions struct {
	// Workers bounds concurrent jobs (<= 0 means GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs admitted but not yet running (<= 0 means one
	// slot per worker). Submissions beyond workers+queue are shed with
	// ErrSaturated.
	QueueDepth int
	// JobTimeout bounds each job (0 = unbounded). It is enforced
	// cooperatively: the job's context is canceled at the deadline and the
	// job is expected to observe it (the sim step loop polls its context
	// periodically); the goroutine is never killed.
	JobTimeout time.Duration
}

// Pool is the package's one executor. A daemon keeps one open for a stream
// of submissions; the batch entry points Run and RunTimed open one per job
// list and close it when the list is done. Per job, panics recover into
// errors, timeouts are enforced cooperatively and the job's context cancels
// it mid-run; per pool, a bounded admission queue gives immediate
// saturation feedback and Queued/Active report its load.
type Pool struct {
	opts  PoolOptions
	tasks chan *poolTask
	wg    sync.WaitGroup

	// closing is closed by Close before tasks is: SubmitWait callers blocked
	// on a full queue abort on it instead of racing a send against the
	// channel close. senders counts SubmitWait callers between registration
	// and select completion so Close can wait them out.
	closing chan struct{}
	senders sync.WaitGroup

	mu     sync.Mutex
	closed bool
	queued int
	active int
}

type poolTask struct {
	ctx  context.Context
	job  func(ctx context.Context) error
	done chan error
}

// NewPool starts the workers and returns a ready pool.
func NewPool(opts PoolOptions) *Pool {
	workers := Workers(opts.Workers)
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = workers
	}
	p := &Pool{opts: opts, tasks: make(chan *poolTask, depth), closing: make(chan struct{})}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Submit offers a job to the pool without blocking. On admission it returns
// a channel that delivers the job's final error (nil on success) exactly
// once. A full queue returns ErrSaturated; a closed pool returns
// ErrPoolClosed. The job's context is the submitted ctx bounded by the
// pool's JobTimeout; a ctx already canceled when the job is dequeued skips
// the job entirely and delivers ctx's error.
func (p *Pool) Submit(ctx context.Context, job func(ctx context.Context) error) (<-chan error, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t := &poolTask{ctx: ctx, job: job, done: make(chan error, 1)}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	select {
	case p.tasks <- t:
		p.queued++
		p.mu.Unlock()
		return t.done, nil
	default:
		p.mu.Unlock()
		return nil, ErrSaturated
	}
}

// SubmitWait is the blocking counterpart of Submit: instead of shedding with
// ErrSaturated when the queue is full, it waits for a slot until ctx is done
// (returning ctx's error) or the pool closes (ErrPoolClosed). It exists for
// cooperating fan-out callers — the cells of one admitted sensitivity plan —
// whose burst should queue behind the running work rather than trip the
// admission control meant to referee independent clients.
func (p *Pool) SubmitWait(ctx context.Context, job func(ctx context.Context) error) (<-chan error, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t := &poolTask{ctx: ctx, job: job, done: make(chan error, 1)}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	p.senders.Add(1)
	// Count the waiter as queued up front (a worker may dequeue the task the
	// instant the send lands, and its decrement must never observe a count
	// this path has yet to add).
	p.queued++
	p.mu.Unlock()
	defer p.senders.Done()
	select {
	case p.tasks <- t:
		return t.done, nil
	case <-ctx.Done():
		p.unqueue()
		return nil, ctx.Err()
	case <-p.closing:
		p.unqueue()
		return nil, ErrPoolClosed
	}
}

// unqueue reverses the optimistic queued++ of a SubmitWait that aborted
// before its task entered the channel.
func (p *Pool) unqueue() {
	p.mu.Lock()
	p.queued--
	p.mu.Unlock()
}

// Queued returns the number of jobs waiting to run: admitted jobs not yet
// picked up by a worker, plus SubmitWait callers still waiting for a queue
// slot.
func (p *Pool) Queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queued
}

// Active returns the number of running jobs.
func (p *Pool) Active() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active
}

// Close stops admission and waits for queued and running jobs to finish.
// Pending jobs still run (their contexts decide whether they do real work);
// callers that want a faster drain cancel those contexts first.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	// Flush blocked SubmitWait callers before closing the task channel: a
	// sender still in its select must take the closing arm (or win the send
	// race, which is fine — the task is then in the channel before close).
	close(p.closing)
	p.senders.Wait()
	close(p.tasks)
	p.wg.Wait()
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		p.mu.Lock()
		p.queued--
		p.active++
		p.mu.Unlock()

		var err error
		if t.ctx.Err() != nil {
			// Abandoned while queued: don't burn a worker on it.
			err = t.ctx.Err()
		} else {
			err = runJob(t.ctx, p.opts.JobTimeout, t.job)
		}

		p.mu.Lock()
		p.active--
		p.mu.Unlock()
		t.done <- err
	}
}

// runJob runs one job with panic recovery and the optional cooperative
// timeout.
func runJob(ctx context.Context, timeout time.Duration, job func(ctx context.Context) error) error {
	jctx := ctx
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		jctx, cancel = context.WithTimeout(ctx, timeout)
	}
	defer cancel()
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		return job(jctx)
	}()
	if err != nil && errors.Is(jctx.Err(), context.DeadlineExceeded) && ctx.Err() == nil {
		err = fmt.Errorf("job exceeded the %v timeout: %w", timeout, err)
	}
	return err
}
