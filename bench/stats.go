package main

import (
	"math"
	"sort"
	"time"
)

// A measured phase is three windows of two segments each. Every timing
// metric is the mean of the middle four of its six per-segment values: a
// one-off host stall spoils one segment and is dropped, and a run that
// straddles two of the host's speed regimes reports a value between them
// instead of jumping to whichever holds four segments.
const (
	windows           = 3
	segmentsPerWindow = 2
	segments          = windows * segmentsPerWindow
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest value with at least p% of the samples at
// or below it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of vs (the mean of the two middle values
// for an even count), 0 when empty. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean returns the arithmetic mean of vs, 0 when empty.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// sample is one completed operation: the segment it ended in and how long
// it took.
type sample struct {
	seg   int
	durMS float64
}

// segmentStats is what one operation class did in one segment.
type segmentStats struct {
	n        int
	p50, p90 float64
	opsPerS  float64
}

// bySegment groups samples by segment; segment is a segment's length.
func bySegment(samples []sample, segment time.Duration) [segments]segmentStats {
	var durs [segments][]float64
	for _, s := range samples {
		durs[s.seg] = append(durs[s.seg], s.durMS)
	}
	var out [segments]segmentStats
	for i, d := range durs {
		sort.Float64s(d)
		out[i] = segmentStats{
			n:       len(d),
			p50:     percentile(d, 50),
			p90:     percentile(d, 90),
			opsPerS: float64(len(d)) / segment.Seconds(),
		}
	}
	return out
}

// midSpread is the mean of the middle four of six per-segment values, with
// the lowest and highest segment.
type midSpread struct{ mid, lo, hi float64 }

// segmentSummary is what the report says about one operation class.
type segmentSummary struct{ p50, p90, opsPerS midSpread }

func summarize(samples []sample, segment time.Duration) segmentSummary {
	segs := bySegment(samples, segment)
	over := func(field func(segmentStats) float64) midSpread {
		vs := make([]float64, segments)
		for i, s := range segs {
			vs[i] = field(s)
		}
		sort.Float64s(vs)
		return midSpread{mid: mean(vs[1 : segments-1]), lo: vs[0], hi: vs[segments-1]}
	}
	return segmentSummary{
		p50:     over(func(s segmentStats) float64 { return s.p50 }),
		p90:     over(func(s segmentStats) float64 { return s.p90 }),
		opsPerS: over(func(s segmentStats) float64 { return s.opsPerS }),
	}
}
