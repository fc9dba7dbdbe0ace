package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the recorder's epoch.
type span struct {
	ID, Parent int64
	Req        int64 // request or job id shared by all spans of one operation
	Name       string
	Start, End int64
}

// recorder keeps spans in memory until the run ends. A nil recorder is the
// untraced mode: every method is a no-op, so call sites need no branches.
type recorder struct {
	epoch   time.Time
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	max     int
	dropped int
	total   map[string]int64 // span ns per span name, dropped spans included
	count   map[string]int64
}

func newRecorder(max int) *recorder {
	return &recorder{epoch: time.Now(), max: max, total: map[string]int64{}, count: map[string]int64{}}
}

// now is the recorder clock.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// newID allocates a span id before the span ends, so children can name it.
func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// add records a finished span. Spans beyond the in-memory cap still count
// toward the per-name totals; only their trace-file entry is dropped.
func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total[s.Name] += s.End - s.Start
	r.count[s.Name]++
	if len(r.spans) < r.max {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
}

// selfTimes derives each span's self time — its duration minus the part of
// that interval its child spans cover — and sums it per span name. Child
// intervals are clipped to the parent and overlapping children (concurrent
// calls under one parent) are merged, so no instant is subtracted twice.
func selfTimes(spans []span) map[string]int64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi).
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var sum, curA, curB int64
	started := false
	for _, iv := range clipped {
		switch {
		case !started:
			curA, curB, started = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			sum += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if started {
		sum += curB - curA
	}
	return sum
}

// writeChromeTrace writes the kept spans as Chrome trace-event JSON
// ("X" complete events, microsecond timestamps, one thread per request),
// which chrome://tracing and Perfetto open directly.
func (r *recorder) writeChromeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int64            `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	if _, err := w.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for i, s := range r.spans {
		if i > 0 {
			if _, err := w.WriteString(","); err != nil {
				return err
			}
		}
		if err := enc.Encode(event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: s.Req,
			Args: map[string]int64{"id": s.ID, "parent": s.Parent}}); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "],\"otherData\":{\"dropped_spans\":%d}}\n", r.dropped); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
