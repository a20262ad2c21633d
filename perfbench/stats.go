package main

import (
	"math"
	"sort"
)

// interval is a half-open time range [start, end) in recorder
// nanoseconds.
type interval struct{ start, end int64 }

// coverage returns how much of window the union of spans covers. Spans
// are clipped to the window, and time covered by several overlapping
// spans (concurrent pool tasks) counts once.
func coverage(window interval, spans []interval) int64 {
	clipped := make([]interval, 0, len(spans))
	for _, s := range spans {
		s.start = max(s.start, window.start)
		s.end = min(s.end, window.end)
		if s.end > s.start {
			clipped = append(clipped, s)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	var cur interval
	open := false
	for _, s := range clipped {
		switch {
		case !open:
			cur, open = s, true
		case s.start <= cur.end:
			cur.end = max(cur.end, s.end)
		default:
			covered += cur.end - cur.start
			cur = s
		}
	}
	if open {
		covered += cur.end - cur.start
	}
	return covered
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p <=
// 100): the smallest sample with at least p% of the samples at or
// below it. ok is false when fewer than minBeyond samples lie above
// it, in which case the tail is too thin to report.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	return s[rank-1], n-rank >= minBeyond
}

// median returns the middle sample, or the mean of the two middle
// samples when len(xs) is even.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread returns (max-min)/median of xs, 0 for identical samples.
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	if hi == lo {
		return 0
	}
	return (hi - lo) / median(xs)
}
