package runner

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsJobs(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 4, QueueDepth: 16})
	defer p.Close()
	var ran atomic.Int32
	var chans []<-chan error
	for i := 0; i < 16; i++ {
		ch, err := p.Submit(context.Background(), func(ctx context.Context) error {
			ran.Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for _, ch := range chans {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	if got := ran.Load(); got != 16 {
		t.Fatalf("ran %d jobs, want 16", got)
	}
}

func TestPoolSaturation(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 1})
	defer p.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	// Occupy the single worker...
	ch1, err := p.Submit(context.Background(), func(ctx context.Context) error {
		close(started)
		<-block
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// ...and the single queue slot.
	ch2, err := p.Submit(context.Background(), func(ctx context.Context) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	// The next submission must shed immediately.
	if _, err := p.Submit(context.Background(), func(ctx context.Context) error { return nil }); !errors.Is(err, ErrSaturated) {
		t.Fatalf("got %v, want ErrSaturated", err)
	}
	if q := p.Queued(); q != 1 {
		t.Fatalf("Queued = %d, want 1", q)
	}
	close(block)
	if err := <-ch1; err != nil {
		t.Fatal(err)
	}
	if err := <-ch2; err != nil {
		t.Fatal(err)
	}
}

func TestPoolPanicRecovered(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 1})
	defer p.Close()
	ch, err := p.Submit(context.Background(), func(ctx context.Context) error {
		panic("job exploded")
	})
	if err != nil {
		t.Fatal(err)
	}
	got := <-ch
	var pe *PanicError
	if !errors.As(got, &pe) {
		t.Fatalf("got %v, want *PanicError", got)
	}
	// The worker survived the panic and keeps serving.
	ch, err = p.Submit(context.Background(), func(ctx context.Context) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
}

func TestPoolAbandonedWhileQueuedSkips(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 1})
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	ch1, err := p.Submit(context.Background(), func(ctx context.Context) error {
		close(started)
		<-block
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	ch2, err := p.Submit(ctx, func(ctx context.Context) error {
		ran.Store(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel() // abandon while queued
	close(block)
	<-ch1
	if err := <-ch2; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran.Load() {
		t.Fatal("abandoned job still ran")
	}
}

func TestPoolJobTimeout(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 1, JobTimeout: 10 * time.Millisecond})
	defer p.Close()
	ch, err := p.Submit(context.Background(), func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := <-ch; !errors.Is(got, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", got)
	}
}

func TestPoolCloseDrains(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 2, QueueDepth: 8})
	var ran atomic.Int32
	var chans []<-chan error
	for i := 0; i < 8; i++ {
		ch, err := p.Submit(context.Background(), func(ctx context.Context) error {
			time.Sleep(time.Millisecond)
			ran.Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	p.Close()
	if got := ran.Load(); got != 8 {
		t.Fatalf("Close drained %d of 8 jobs", got)
	}
	if _, err := p.Submit(context.Background(), func(ctx context.Context) error { return nil }); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("got %v, want ErrPoolClosed", err)
	}
	for _, ch := range chans {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	p.Close() // idempotent
}

// TestPoolInstrumentation: Queued and Active rise while jobs are gated,
// Active never exceeds the worker count, and both return to 0 once the pool
// has drained.
func TestPoolInstrumentation(t *testing.T) {
	const workers, jobs = 2, 6
	p := NewPool(PoolOptions{Workers: workers, QueueDepth: 8})
	gate := make(chan struct{})
	var overActive atomic.Int64
	checkActive := func() {
		if a := p.Active(); a > workers {
			overActive.Store(int64(a))
		}
	}
	for i := 0; i < jobs; i++ {
		if _, err := p.Submit(context.Background(), func(ctx context.Context) error {
			checkActive()
			<-gate
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.Active() != workers || p.Queued() != jobs-workers {
		checkActive()
		if time.Now().After(deadline) {
			t.Fatalf("gated pool: Queued=%d Active=%d, want %d/%d", p.Queued(), p.Active(), jobs-workers, workers)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	p.Close()
	if a := overActive.Load(); a != 0 {
		t.Fatalf("Active reached %d with %d workers", a, workers)
	}
	if q, a := p.Queued(), p.Active(); q != 0 || a != 0 {
		t.Fatalf("drained pool: Queued=%d Active=%d, want 0/0", q, a)
	}
}

func TestSubmitWaitBlocksUntilSlotFrees(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 1})
	defer p.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	ch1, err := p.Submit(context.Background(), func(ctx context.Context) error {
		close(started)
		<-block
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ch2, err := p.Submit(context.Background(), func(ctx context.Context) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	// Queue full: Submit sheds, SubmitWait must wait and then run.
	if _, err := p.Submit(context.Background(), func(ctx context.Context) error { return nil }); !errors.Is(err, ErrSaturated) {
		t.Fatalf("Submit on full queue: got %v, want ErrSaturated", err)
	}
	waited := make(chan error, 1)
	go func() {
		ch3, err := p.SubmitWait(context.Background(), func(ctx context.Context) error { return nil })
		if err != nil {
			waited <- err
			return
		}
		waited <- <-ch3
	}()
	select {
	case err := <-waited:
		t.Fatalf("SubmitWait returned %v before a slot freed", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(block)
	if err := <-waited; err != nil {
		t.Fatalf("SubmitWait job: %v", err)
	}
	if err := <-ch1; err != nil {
		t.Fatal(err)
	}
	if err := <-ch2; err != nil {
		t.Fatal(err)
	}
}

func TestSubmitWaitCanceledWhileWaiting(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 1})
	defer p.Close()

	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	if _, err := p.Submit(context.Background(), func(ctx context.Context) error {
		close(started)
		<-block
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := p.Submit(context.Background(), func(ctx context.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := p.SubmitWait(ctx, func(ctx context.Context) error { return nil })
		errc <- err
	}()
	// Give the waiter time to block, then abandon it.
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// The aborted waiter must not leave a phantom entry in the queue gauge.
	for i := 0; i < 100; i++ {
		if p.Queued() == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if q := p.Queued(); q != 1 {
		t.Fatalf("Queued = %d after aborted SubmitWait, want 1", q)
	}
}

func TestSubmitWaitPoolClosed(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 1})
	p.Close()
	if _, err := p.SubmitWait(context.Background(), func(ctx context.Context) error { return nil }); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("got %v, want ErrPoolClosed", err)
	}
}

func TestSubmitWaitCloseWhileWaiting(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 1})

	block := make(chan struct{})
	started := make(chan struct{})
	if _, err := p.Submit(context.Background(), func(ctx context.Context) error {
		close(started)
		<-block
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := p.Submit(context.Background(), func(ctx context.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, 1)
	go func() {
		_, err := p.SubmitWait(context.Background(), func(ctx context.Context) error { return nil })
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	// Close must flush the blocked waiter with ErrPoolClosed, not deadlock
	// or panic on a send to a closed channel.
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(block)
	}()
	p.Close()
	if err := <-errc; !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("got %v, want ErrPoolClosed", err)
	}
}
