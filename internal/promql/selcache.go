package promql

import (
	"sort"

	"dio/internal/tsdb"
)

// labelsRef identifies a label slice by backing array and length. Equal
// refs view the exact same elements, so (labels being immutable) they
// share one canonical key.
type labelsRef struct {
	p *tsdb.Label
	n int
}

// seekAfter returns the smallest index with samples[i].T > t. When scan is
// true the cursor hint is known to be at or behind the target and the seek
// gallops: exponential probing from the hint, then binary search within
// the last doubling — O(log d) in the distance advanced, so dense series
// stepped over with a coarse resolution (long-range queries) don't pay a
// linear walk per step. A cold seek binary-searches from scratch.
func seekAfter(samples []tsdb.Sample, hint int, t int64, scan bool) int {
	if !scan {
		return sort.Search(len(samples), func(i int) bool { return samples[i].T > t })
	}
	if hint >= len(samples) || samples[hint].T > t {
		return hint
	}
	// samples[hint].T <= t: gallop until lo is the largest probed index
	// with samples[lo].T <= t and lo+bound overshoots (or hits the end).
	lo, bound := hint, 1
	for lo+bound < len(samples) && samples[lo+bound].T <= t {
		lo += bound
		bound <<= 1
	}
	hi := lo + bound
	if hi > len(samples) {
		hi = len(samples)
	}
	// Answer lies in (lo, hi]: binary-search the open interval.
	return lo + 1 + sort.Search(hi-lo-1, func(k int) bool { return samples[lo+1+k].T > t })
}
