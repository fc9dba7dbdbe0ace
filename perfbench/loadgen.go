package main

import (
	"context"
	"math/rand"
	"sync"
	"syscall"
	"time"
)

// poissonSchedule returns send offsets for an open loop of independent
// clients at rate requests per second over d: exponential gaps drawn from
// rng, so the same seed gives the same schedule.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// sample is one open-loop request, timed from the moment it was due.
type sample struct {
	Due  time.Duration // scheduled send offset
	Sent time.Duration // actual send offset
	Done time.Duration // completion offset
	OK   bool
	// Skipped marks a request never sent because the run was canceled.
	Skipped bool
}

// Latency is completion time measured from the scheduled send time, so a
// stall charges the wait it imposes on every request queued behind it.
func (s sample) Latency() time.Duration { return s.Done - s.Due }

// Late is how far behind schedule the generator sent the request.
func (s sample) Late() time.Duration { return s.Sent - s.Due }

// clock abstracts time for the open-loop generator so its scheduling can be
// tested without sleeping.
type clock interface {
	Now() time.Time
	Since(t0 time.Time) time.Duration
	// SleepUntil returns once offset due from t0 has passed.
	SleepUntil(t0 time.Time, due time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time                   { return time.Now() }
func (realClock) Since(t0 time.Time) time.Duration { return time.Since(t0) }

// SleepUntil sleeps with the Go timer while more than coarseWait remains
// and with nanosleep(2) for the rest. A Go timer wakes an idle process up
// to a millisecond late (the runtime's poller waits in whole
// milliseconds), which would be charged to every request's latency; a
// spin loop instead starves the runtime's network poller. nanosleep has
// microsecond resolution, and the runtime lends the thread's P to other
// goroutines while it blocks.
func (realClock) SleepUntil(t0 time.Time, due time.Duration) {
	const coarseWait = 2 * time.Millisecond
	if wait := due - time.Since(t0); wait > coarseWait {
		time.Sleep(wait - coarseWait)
	}
	for wait := due - time.Since(t0); wait > 0; wait = due - time.Since(t0) {
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait; the loop re-checks
	}
}

// openLoop sends due[i] in order over conns concurrent connections. One
// pacer walks the schedule: it waits for an idle connection, then for the
// request's due time (not at all when already late), then hands the
// request to that connection, which calls do(i). It returns once every
// request has completed or ctx is done. Requests never sent are reported
// Skipped. A schedule of all-zero offsets makes it a closed loop: each
// connection sends its next request as soon as the last one returns.
func openLoop(ctx context.Context, clk clock, due []time.Duration, conns int, do func(i int) bool) []sample {
	out := make([]sample, len(due))
	for i := range out {
		out[i].Due, out[i].Skipped = due[i], true
	}
	t0 := clk.Now()
	idle := make(chan struct{}, conns) // one token per idle connection
	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idle <- struct{}{}
				i, ok := <-work
				if !ok {
					return
				}
				out[i].Sent = clk.Since(t0)
				out[i].Skipped = false
				ok = do(i)
				out[i].Done = clk.Since(t0)
				out[i].OK = ok
			}
		}()
	}
	for i := range due {
		<-idle
		if ctx.Err() != nil {
			break
		}
		clk.SleepUntil(t0, due[i])
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}
