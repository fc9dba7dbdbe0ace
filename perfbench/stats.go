package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the sample-count rule for tail percentiles: a percentile is
// reported only when at least this many samples lie beyond it.
const minBeyond = 10

// quantile returns the q-quantile (0 < q <= 1) of sorted by nearest rank:
// the smallest sample with at least a q share of samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := rank(len(sorted), q) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// rank is the 1-based nearest rank of quantile q among n samples,
// tolerant of the rounding in q*n (0.99*1000 is not exactly 990).
func rank(n int, q float64) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// tailQ returns the highest quantile, no higher than want, that n samples
// support: at least minBeyond samples must lie beyond it. It falls back
// through p99, p90 and p50; 0 means n is too small for any tail.
func tailQ(n int, want float64) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9, 0.5} {
		if q > want {
			continue
		}
		if n-rank(n, q) >= minBeyond {
			return q
		}
	}
	return 0
}

// summary is a timing distribution reduced to its reported figures.
type summary struct {
	N     int
	P50   float64
	Tail  float64
	TailQ float64 // the quantile Tail reports (0: too few samples)
}

// summarize reduces xs to its median and the tail quantile closest to want
// that the sample count supports. xs is sorted in place.
func summarize(xs []float64, want float64) summary {
	sort.Float64s(xs)
	s := summary{N: len(xs), P50: quantile(xs, 0.5), TailQ: tailQ(len(xs), want)}
	if s.TailQ > 0 {
		s.Tail = quantile(xs, s.TailQ)
	}
	return s
}

// median returns the median of xs (which it sorts in place); midpoint of the
// two middle values for even counts.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// iqrShare is the distance between the first and third quartiles of xs as a
// share of their median (the stability figure BENCHMARK.json's bounds are
// judged by), using the exclusive method of Python's statistics.quantiles.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		// statistics.quantiles(method="exclusive"): position p*(n+1), 1-based.
		pos := p * float64(len(s)+1)
		j := int(math.Floor(pos))
		d := pos - float64(j)
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + d*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / math.Abs(m)
}

// windowedQuantile groups latencies by the window of width win that their
// timestamp falls in and returns the median over windows of each window's
// q-quantile, with the number of windows counted. A window counts only when
// at least minBeyond of its samples lie beyond the quantile. A host stall
// during part of a run then moves only the windows it touches, not the
// figure. A run too short for any window to count falls back to the
// quantile over all samples, reported as one window.
func windowedQuantile(at []time.Duration, lat []float64, win time.Duration, q float64) (float64, int) {
	byWin := map[int64][]float64{}
	for i, t := range at {
		byWin[int64(t/win)] = append(byWin[int64(t/win)], lat[i])
	}
	var per []float64
	for _, xs := range byWin {
		if tailQ(len(xs), q) < q {
			continue
		}
		sort.Float64s(xs)
		per = append(per, quantile(xs, q))
	}
	if len(per) == 0 {
		all := append([]float64(nil), lat...)
		sort.Float64s(all)
		return quantile(all, q), 1
	}
	return median(per), len(per)
}
