package promql

// pool.go — the allocation layer of the streaming executor. Range queries
// evaluate their steps one at a time; every intermediate container a step
// produces — step vectors, subquery window matrices, merge scratch — is
// handed out by the query's alloc and recycled wholesale as soon as the
// step has been folded into the range accumulator. The arena
// discipline replaces a per-value ownership protocol: nothing is reused
// while any value of the current step can still reference it, and the
// only data that outlives a step — sample values (copied by the fold) and
// label slices (never pooled) — is safe by construction. Range functions
// over a matrix selector build no window matrix at all: they read each
// window off the part's cursor.
//
// An alloc is single-goroutine: a range query's part owns one. The alloc
// structs themselves recycle across queries through a global sync.Pool
// (pointer-typed, so Get/Put never box), which is what makes short queries
// allocation-free in steady state: the freelists survive from one
// dashboard refresh to the next.
//
// The arena derives no labels. Name drops, grouping labels and their keys
// come once per query from the execution's position tables (idTable,
// exec.go), which operators index by the scan position their samples
// carry; shapes without one derive them from each sample's labels.
//
// An instant query's part carries a nil alloc, because its value escapes
// to the caller; on it every method falls back to plain heap allocation.
// The tests run range queries that way too (Engine.noArena) to pin that
// results never depend on recycling. The
// poison mode scribbles sentinel values over recycled containers so the
// golden corpus catches any use-after-reset aliasing.

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"dio/internal/tsdb"
)

// poolBuckets bounds the power-of-two size classes of the freelists
// (2^23 elements ≈ 8M — far above any per-step container).
const poolBuckets = 24

// poisonPools, when set (tests only), scribbles sentinel values over every
// container before it is recycled, so any value still aliasing a pooled
// slice after a step's reset corrupts observably instead of silently.
var poisonPools atomic.Bool

// Poison sentinels: a timestamp and label set no real evaluation produces.
const poisonT = int64(-0xDEADBEEF)

var poisonLabels = tsdb.Labels{{Name: "__poisoned__", Value: "0xDEADBEEF"}}

// freelist is one type's recycled-slice store, bucketed by
// floor(log2(cap)): bucket k holds slices with cap in [2^k, 2^(k+1)).
type freelist[T any] struct {
	buckets [poolBuckets][][]T
}

// get returns an empty slice with capacity >= n, recycled when possible.
func (f *freelist[T]) get(n int) []T {
	if n < 1 {
		n = 1
	}
	class := bits.Len(uint(n - 1)) // ceil(log2(n))
	if class >= poolBuckets {
		class = poolBuckets - 1
	}
	b := f.buckets[class]
	for len(b) > 0 {
		s := b[len(b)-1]
		b = b[:len(b)-1]
		f.buckets[class] = b
		if cap(s) >= n {
			return s[:0]
		}
		// Undersized stray in the top bucket (exact-capacity overflow
		// allocation): drop it and keep looking.
	}
	if c := 1 << class; c >= n {
		return make([]T, 0, c)
	}
	return make([]T, 0, n)
}

// put recycles s into its capacity bucket.
func (f *freelist[T]) put(s []T) {
	c := cap(s)
	if c == 0 {
		return
	}
	class := bits.Len(uint(c)) - 1
	if class >= poolBuckets {
		class = poolBuckets - 1
	}
	f.buckets[class] = append(f.buckets[class], s)
}

// aggGroup is one reusable aggregation-group accumulator of the scratch
// slab.
type aggGroup struct {
	labels tsdb.Labels
	pos    int32 // 1 + the group's row in its identity table, or 0
	vals   []float64
	elems  Vector // for topk/bottomk/count_values
}

// aggScratch is the reusable working state of aggregateVector: the group
// index (by key on the label path, by group row on the position path),
// the groups' output order and the slab the group accumulators live in
// (indices, not pointers — the slab may grow).
type aggScratch struct {
	idx   map[string]int
	order []string
	slot  []int32 // group row → slab index + 1 (position path)
	seq   []int32 // slab indices in output order
	slab  []aggGroup
}

// addGroup appends a group accumulator for gl, reusing a slab entry's
// vals/elems capacity when one is available.
func (sc *aggScratch) addGroup(gl tsdb.Labels, pos int32) int {
	if len(sc.slab) < cap(sc.slab) {
		sc.slab = sc.slab[:len(sc.slab)+1]
		g := &sc.slab[len(sc.slab)-1]
		g.labels, g.pos = gl, pos
		g.vals = g.vals[:0]
		g.elems = g.elems[:0]
	} else {
		sc.slab = append(sc.slab, aggGroup{labels: gl, pos: pos})
	}
	return len(sc.slab) - 1
}

// alloc is a range query's arena allocator. A nil *alloc is valid
// everywhere and means "heap" — instant queries and the test oracle run
// with nil.
type alloc struct {
	freeV freelist[VSample]
	freeM freelist[MSeries]
	freeS freelist[string]
	freeF freelist[float64]

	// live tracks every container handed out since the last reset — the
	// arena. reset moves them all back to the freelists.
	liveV [][]VSample
	liveM [][]MSeries
	liveS [][]string
	liveF [][]float64

	// liveBytes approximates the bytes currently held by live containers;
	// peakBytes is its high-water mark across steps — the "intermediate
	// memory" figure RangeStats reports.
	liveBytes int64
	peakBytes int64

	agg aggScratch
}

// allocPool recycles alloc structs — freelists included — across queries.
var allocPool = sync.Pool{New: func() any { return new(alloc) }}

// vec returns an empty Vector with capacity >= n.
func (al *alloc) vec(n int) Vector {
	if al == nil {
		return make(Vector, 0, n)
	}
	s := al.freeV.get(n)
	al.liveV = append(al.liveV, s)
	al.liveBytes += int64(cap(s)) * int64(unsafe.Sizeof(VSample{}))
	return s
}

// mat returns an empty Matrix with capacity >= n.
func (al *alloc) mat(n int) Matrix {
	if al == nil {
		return make(Matrix, 0, n)
	}
	s := al.freeM.get(n)
	al.liveM = append(al.liveM, s)
	al.liveBytes += int64(cap(s)) * int64(unsafe.Sizeof(MSeries{}))
	return s
}

// strs returns an empty string slice with capacity >= n.
func (al *alloc) strs(n int) []string {
	if al == nil {
		return make([]string, 0, n)
	}
	s := al.freeS.get(n)
	al.liveS = append(al.liveS, s)
	al.liveBytes += int64(cap(s)) * int64(unsafe.Sizeof(""))
	return s
}

// floats returns an empty float64 slice with capacity >= n.
func (al *alloc) floats(n int) []float64 {
	if al == nil {
		return make([]float64, 0, n)
	}
	s := al.freeF.get(n)
	al.liveF = append(al.liveF, s)
	al.liveBytes += int64(cap(s)) * 8
	return s
}

// reset recycles every live container — the end of a step. The caller
// guarantees nothing evaluated since the previous reset is referenced
// anymore (the fold copied samples out; labels are never pooled).
func (al *alloc) reset() {
	if al == nil {
		return
	}
	if al.liveBytes > al.peakBytes {
		al.peakBytes = al.liveBytes
	}
	al.liveBytes = 0
	poison := poisonPools.Load()
	for _, s := range al.liveV {
		if poison {
			s = s[:cap(s)]
			for i := range s {
				s[i] = VSample{Labels: poisonLabels, T: poisonT, V: math.NaN()}
			}
		}
		al.freeV.put(s)
	}
	al.liveV = al.liveV[:0]
	for _, s := range al.liveM {
		if poison {
			s = s[:cap(s)]
			for i := range s {
				s[i] = MSeries{Labels: poisonLabels}
			}
		}
		al.freeM.put(s)
	}
	al.liveM = al.liveM[:0]
	for _, s := range al.liveS {
		// Strings always clear: recycled key scratch must not pin large
		// key strings between uses.
		s = s[:cap(s)]
		for i := range s {
			if poison {
				s[i] = "0xDEADBEEF"
			} else {
				s[i] = ""
			}
		}
		al.freeS.put(s)
	}
	al.liveS = al.liveS[:0]
	for _, s := range al.liveF {
		if poison {
			s = s[:cap(s)]
			for i := range s {
				s[i] = math.NaN()
			}
		}
		al.freeF.put(s)
	}
	al.liveF = al.liveF[:0]
}

// release resets the arena one final time, drops every label and key
// reference (nothing may pin or alias a finished query's series), returns
// the alloc to the global pool and reports its high-water mark.
func (al *alloc) release() (peak int64) {
	if al == nil {
		return 0
	}
	al.reset()
	peak, al.peakBytes = al.peakBytes, 0
	clear(al.agg.idx)
	for i := range al.agg.order {
		al.agg.order[i] = ""
	}
	al.agg.order = al.agg.order[:0]
	slab := al.agg.slab[:cap(al.agg.slab)]
	for i := range slab {
		g := &slab[i]
		g.labels = nil
		for j := range g.elems {
			g.elems[j] = VSample{}
		}
		g.elems = g.elems[:0]
		g.vals = g.vals[:0]
	}
	al.agg.slab = al.agg.slab[:0]
	allocPool.Put(al)
	return peak
}

// groupLabels computes an aggregation's grouping labels for one input
// label set.
func groupLabels(n *AggregateExpr, ls tsdb.Labels) tsdb.Labels {
	if n.Without {
		drop := append([]string{tsdb.MetricNameLabel}, n.Grouping...)
		return ls.Without(drop...)
	}
	if len(n.Grouping) == 0 {
		return nil
	}
	return ls.Keep(n.Grouping...)
}

// aggScratchFor returns cleared aggregation scratch — the alloc's reusable
// instance, or a fresh heap one on the nil-arena path. aggregateVector
// never re-enters itself (operands are evaluated before the kernel runs),
// so one instance per alloc suffices.
func (al *alloc) aggScratchFor(sizeHint int) *aggScratch {
	if al == nil {
		return &aggScratch{idx: make(map[string]int, sizeHint)}
	}
	sc := &al.agg
	if sc.idx == nil {
		sc.idx = make(map[string]int, 16)
	} else {
		clear(sc.idx)
	}
	for i := range sc.order {
		sc.order[i] = ""
	}
	sc.order = sc.order[:0]
	sc.seq = sc.seq[:0]
	sc.slab = sc.slab[:0]
	return sc
}
