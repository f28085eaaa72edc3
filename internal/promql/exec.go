package promql

// exec.go — the third plan-based execution layer (see logical.go,
// physical.go). The executor prefetches every deduplicated scan with one
// tsdb.SelectBatch call, then drives the physical operator tree:
//
//   - Range queries split their steps into contiguous partitions, one
//     goroutine each, every partition owning private scan cursors that
//     advance monotonically through its steps (seekAfter in selcache.go
//     gallops from the previous position). Each partition streams its
//     steps in bounded batches (defaultBatchSize): step
//     vectors fold into a per-partition accumulator as they are produced,
//     and the arena holding the batch's intermediates (pool.go) resets at
//     every batch boundary — peak memory is bounded by batch size ×
//     series count, not range length × series count. Partition
//     accumulators merge in ascending partition order; because partitions
//     are contiguous and the final series order is re-sorted by key, the
//     rendered output is byte-identical to sequential evaluation
//     regardless of which partition finishes first.
//   - Instant queries run a single stateless part (binary-search scans,
//     no shared cursor state), which additionally unlocks branch-parallel
//     binary operands and per-series-parallel range functions: both are
//     race-free because stateless reads share nothing and outputs merge
//     into position-indexed slots.
//
// Error determinism: on failure the executor reports the error of the
// earliest failing step, preferring non-cancellation errors (sibling
// partitions are cancelled once one fails, and their context.Canceled
// must not mask the root cause) — the same rule the dashboard renderer
// uses for its panel pool.
//
// Sample budgets match the test oracle exactly: each range step gets
// a fresh MaxSamples budget, and subqueries inherit and extend their
// step's budget. Instant queries use one budget guarded by an atomic so
// parallel branches share it safely.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dio/internal/obs"
	"dio/internal/tsdb"
)

// minStepsPerPartition keeps partitions coarse enough that cursor reuse
// still amortises: splitting fewer steps than this per worker costs more
// in setup than it saves.
const minStepsPerPartition = 8

// minSeriesForParallel gates per-series-parallel range functions; tiny
// matrices are cheaper sequentially.
const minSeriesForParallel = 8

// execState is the shared, read-mostly state of one query execution:
// prefetched series per scan, the fingerprint key cache, and the atomic
// stat counters partitions update.
type execState struct {
	eng        *Engine
	cp         *compiledPlan
	series     [][]tsdb.SeriesView
	keys       map[labelsRef]string
	lookbackMs int64

	// shardSeries, when the engine fronts a ShardedDB and the plan holds
	// distribute nodes, keeps the per-shard halves of the prefetch:
	// shardSeries[shard][scanIdx]. The views are the same structs the
	// merged series slices hold (one decode pass serves both).
	shardSeries [][][]tsdb.SeriesView
	// distDemoted[id] flips when distribute node id fails a runtime
	// order guard; the node then evaluates over the merged view for the
	// rest of this execution (sticky — re-checking a failed invariant
	// every step buys nothing).
	distDemoted   []atomic.Bool
	distPartials  atomic.Int64
	distFallbacks atomic.Int64

	services     []int64 // per scan, atomic: operator reads served
	resets       atomic.Int64
	totalSamples atomic.Int64

	// opStats holds one accumulator per operator of the compiled plan
	// (indexed by statsIdx) — the EXPLAIN ANALYZE slab, pre-sized once per
	// execution and updated with atomics. shardWallNs adds per-shard
	// fan-out wall times for distribute nodes, indexed
	// distID*shards+shard.
	opStats     []opSlot
	shardWallNs []int64

	workers int
	sem     chan struct{} // bounds extra goroutines beyond the caller's

	// peakIntermediate collects the max pooled-intermediate high-water
	// mark across the execution's allocs (RangeStats.PeakIntermediateBytes).
	peakIntermediate atomic.Int64
}

// newExecState prefetches every scan of the plan for an evaluation range
// [startMs, endMs] and seeds the fingerprint key cache.
func (e *Engine) newExecState(cp *compiledPlan, startMs, endMs int64) *execState {
	st := &execState{
		eng:        e,
		cp:         cp,
		keys:       make(map[labelsRef]string),
		lookbackMs: e.opts.LookbackDelta.Milliseconds(),
		services:   make([]int64, len(cp.plan.scans)),
		workers:    e.opts.ExecWorkers,
		opStats:    make([]opSlot, len(cp.stats)),
	}
	hints := cp.plan.selectHints(startMs, endMs)
	if e.sharded != nil {
		fanStart := time.Now()
		if len(cp.distScans) > 0 {
			st.series, st.shardSeries = e.sharded.SelectBatchShards(hints)
		} else {
			st.series = e.sharded.SelectBatch(hints)
		}
		if e.hooks.OnFanout != nil {
			e.hooks.OnFanout(time.Since(fanStart))
		}
	} else {
		st.series = e.db.SelectBatch(hints)
	}
	for _, views := range st.series {
		for _, sv := range views {
			if len(sv.Labels) > 0 {
				st.keys[labelsRef{&sv.Labels[0], len(sv.Labels)}] = sv.Fingerprint
			}
		}
	}
	if st.shardSeries != nil {
		st.shardWallNs = make([]int64, len(cp.distScans)*len(st.shardSeries))
		st.distDemoted = make([]atomic.Bool, len(cp.distScans))
		// Name-first guard: name-dropping operators in a distributed
		// child subtree preserve fingerprint order only while __name__
		// sorts first in every view's label set (a label name ordered
		// before "__name__" — e.g. starting with an uppercase letter —
		// breaks the invariant). Checked once per execution, per
		// distribute node, over the merged views of its scan.
		for id, scanIdx := range cp.distScans {
			for _, sv := range st.series[scanIdx] {
				if len(sv.Labels) == 0 || sv.Labels[0].Name != tsdb.MetricNameLabel {
					st.distDemoted[id].Store(true)
					break
				}
			}
		}
	}
	if st.workers > 1 {
		st.sem = make(chan struct{}, st.workers-1)
	}
	return st
}

// acquireWorker reserves a worker slot for an extra goroutine; callers
// fall back to inline evaluation when the pool is saturated, so plan
// recursion can never deadlock on its own semaphore.
func (st *execState) acquireWorker() bool {
	if st.sem == nil {
		return false
	}
	select {
	case st.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (st *execState) releaseWorker() { <-st.sem }

// stats summarises the execution for the engine's observation hooks:
// misses are the distinct storage fetches (one per deduplicated scan),
// hits the operator reads served beyond each scan's first.
func (st *execState) stats() RangeStats {
	services := int64(0)
	for i := range st.services {
		services += atomic.LoadInt64(&st.services[i])
	}
	misses := len(st.services)
	hits := int(services) - misses
	if hits < 0 {
		hits = 0
	}
	return RangeStats{
		SelectorHits:          hits,
		SelectorMisses:        misses,
		CursorResets:          int(st.resets.Load()),
		DistPartials:          int(st.distPartials.Load()),
		DistFallbacks:         int(st.distFallbacks.Load()),
		PeakIntermediateBytes: st.peakIntermediate.Load(),
	}
}

// notePeakIntermediate folds one alloc's high-water mark into the
// execution-wide max (CAS loop: allocs release from partition goroutines).
func (st *execState) notePeakIntermediate(b int64) {
	for {
		cur := st.peakIntermediate.Load()
		if b <= cur || st.peakIntermediate.CompareAndSwap(cur, b) {
			return
		}
	}
}

// useCursor is the per-partition cursor state of one selector use site.
type useCursor struct {
	inst     []int
	instT    int64
	instPos  bool
	lo, hi   []int
	winStart int64
	winEnd   int64
	winPos   bool
}

// part drives the operator tree for a contiguous run of steps (cursor
// mode) or a single instant (stateless parallel mode).
type part struct {
	st  *execState
	ctx context.Context
	// shard restricts selector reads to one shard's prefetched views;
	// -1 reads the merged view. Only distribute-node children run with
	// shard >= 0.
	shard int
	// samples is the per-step budget in sequential cursor mode; asamples
	// replaces it in parallel instant mode.
	samples  int
	asamples *atomic.Int64
	// cursors, when non-nil, holds one slot per selector use site and
	// enables monotone cursor scans; nil means stateless binary search.
	cursors   []useCursor
	seriesPar bool
	branchPar bool
	// distParts caches this part's per-shard child parts (cursor mode
	// keeps per-shard cursor state across steps); distAcc is the shared
	// budget those parts account into, seeded from samples per call so
	// MaxSamples trips at the same totals as unsharded evaluation.
	distParts []*part
	distAcc   *atomic.Int64
	// al, when non-nil, is this part's batch arena (pool.go): every
	// intermediate container the part's operators produce comes from it
	// and is recycled at the next batch boundary. Nil on instant parts:
	// all methods degrade to plain heap allocation.
	al *alloc
}

func (st *execState) newCursorPart(ctx context.Context) *part {
	p := &part{st: st, ctx: ctx, shard: -1, cursors: make([]useCursor, st.cp.nCursors)}
	if !st.eng.noArena {
		p.al = getAlloc(st.keys)
	}
	return p
}

// resetArena recycles everything this part (and its per-shard children)
// allocated during the finished batch. Called only at batch boundaries,
// after the batch's step vectors have been folded into the partition
// accumulator and no distribute fan-out is in flight.
func (p *part) resetArena() {
	p.al.reset()
	for _, dp := range p.distParts {
		dp.al.reset()
	}
}

// releaseAllocs returns the partition's arenas to the global pool when
// its span is done (shard children first — their goroutines joined at the
// end of the last distribute evaluation).
func (p *part) releaseAllocs() {
	for _, dp := range p.distParts {
		dp.al.release(p.st)
		dp.al = nil
	}
	p.al.release(p.st)
	p.al = nil
}

func (st *execState) newInstantPart(ctx context.Context) *part {
	par := st.workers > 1
	return &part{st: st, ctx: ctx, shard: -1, asamples: new(atomic.Int64), seriesPar: par, branchPar: par}
}

// shardParts returns one child part per shard for distribute-node
// evaluation. Cursor-mode parts are cached (per-shard cursors advance
// monotonically across steps, exactly like the parent's); instant-mode
// parts are ephemeral because branch-parallel binary operands may
// evaluate two distribute nodes on this part concurrently. Distribute
// nodes share the cached parts safely: each child subtree owns disjoint
// cursor slots.
func (p *part) shardParts(n int) []*part {
	if p.cursors == nil {
		parts := make([]*part, n)
		for i := range parts {
			parts[i] = &part{st: p.st, ctx: p.ctx, shard: i, asamples: p.asamples, seriesPar: p.seriesPar}
		}
		return parts
	}
	if p.distParts == nil {
		p.distAcc = new(atomic.Int64)
		p.distParts = make([]*part, n)
		for i := range p.distParts {
			dp := &part{st: p.st, ctx: p.ctx, shard: i, asamples: p.distAcc, cursors: make([]useCursor, p.st.cp.nCursors)}
			if p.al != nil {
				// Each shard child runs on its own goroutine, so it gets
				// its own arena; the parent resets and releases them in
				// lockstep with its own.
				dp.al = getAlloc(p.st.keys)
			}
			p.distParts[i] = dp
		}
	}
	p.distAcc.Store(int64(p.samples))
	return p.distParts
}

// seriesFor resolves a scan's prefetched views for this part's shard.
func (p *part) seriesFor(scanIdx int) []tsdb.SeriesView {
	if p.shard >= 0 {
		return p.st.shardSeries[p.shard][scanIdx]
	}
	return p.st.series[scanIdx]
}

// mergeShardVectors k-way merges per-shard child vectors by label key,
// guarding the two invariants the distributed path rests on: each shard
// vector is strictly increasing in key (per-series operators preserved
// shard view order and produced no duplicate keys), and no key appears on
// two shards (fingerprint routing puts a series on exactly one shard; a
// name-dropping collision would surface here as a cross-shard tie).
// ok=false demotes the caller to the merged-view fallback.
func (p *part) mergeShardVectors(vecs []Vector) (Vector, bool) {
	total, live, lastIdx := 0, 0, 0
	for i, v := range vecs {
		if len(v) > 0 {
			total += len(v)
			live++
			lastIdx = i
		}
	}
	if total == 0 {
		return Vector{}, true
	}
	if live == 1 {
		// A single contributing shard is the merged result verbatim — its
		// views were the whole merged view, so its output already matches
		// the unsharded evaluation bit for bit.
		return vecs[lastIdx], true
	}
	keys := make([][]string, len(vecs))
	for i, v := range vecs {
		ks := p.al.strs(len(v))[:len(v)]
		for j, s := range v {
			ks[j] = p.keyOf(s.Labels)
			if j > 0 && ks[j-1] >= ks[j] {
				return nil, false
			}
		}
		keys[i] = ks
	}
	out := p.al.vec(total)
	heads := make([]int, len(vecs))
	for len(out) < total {
		best := -1
		for i, v := range vecs {
			if heads[i] >= len(v) {
				continue
			}
			switch {
			case best < 0:
				best = i
			case keys[i][heads[i]] == keys[best][heads[best]]:
				return nil, false // cross-shard key tie: order undefined
			case keys[i][heads[i]] < keys[best][heads[best]]:
				best = i
			}
		}
		out = append(out, vecs[best][heads[best]])
		heads[best]++
	}
	return out, true
}

// eval runs one operator, enforcing cancellation at every node, and
// accumulates the operator's call count and output series into its
// pre-sized slot — atomics only, no allocation, and never a change to
// the value flowing through. Wall time is sampled (every
// statsTimeEvery-th call per operator, the first included) and scaled
// back up by buildOp: on hosts without a cheap monotonic clock a per-call
// time.Now pair alone cost 16% on the dashboard mix.
func (p *part) eval(op physOp, ts int64) (Value, error) {
	if err := p.ctx.Err(); err != nil {
		return nil, err
	}
	sl := &p.st.opStats[op.statsIdx()]
	if (atomic.AddInt64(&sl.calls, 1)-1)&(statsTimeEvery-1) != 0 {
		v, err := op.exec(p, ts)
		sl.noteValue(v)
		return v, err
	}
	begin := time.Now()
	v, err := op.exec(p, ts)
	atomic.AddInt64(&sl.wallNs, int64(time.Since(begin)))
	atomic.AddInt64(&sl.timed, 1)
	sl.noteValue(v)
	return v, err
}

// evalVec is eval for operators that statically produce vectors (the
// vecExecer fast path): identical cancellation and stats behaviour, but
// the value never crosses an interface boundary — on the step-batched hot
// path that interface box was one heap allocation per operator per step.
func (p *part) evalVec(op vecExecer, ts int64) (Vector, error) {
	if err := p.ctx.Err(); err != nil {
		return nil, err
	}
	sl := &p.st.opStats[op.statsIdx()]
	if (atomic.AddInt64(&sl.calls, 1)-1)&(statsTimeEvery-1) != 0 {
		v, err := op.execVec(p, ts)
		atomic.AddInt64(&sl.series, int64(len(v)))
		return v, err
	}
	begin := time.Now()
	v, err := op.execVec(p, ts)
	atomic.AddInt64(&sl.wallNs, int64(time.Since(begin)))
	atomic.AddInt64(&sl.timed, 1)
	atomic.AddInt64(&sl.series, int64(len(v)))
	return v, err
}

// window runs a window-producing operator (the pRangeFunc input path,
// which bypasses eval), mirroring eval's stats collection.
func (p *part) window(op windowOp, ts int64) (Matrix, int64, int64, error) {
	if err := p.ctx.Err(); err != nil {
		return nil, 0, 0, err
	}
	sl := &p.st.opStats[op.statsIdx()]
	if (atomic.AddInt64(&sl.calls, 1)-1)&(statsTimeEvery-1) != 0 {
		m, start, end, err := op.window(p, ts)
		atomic.AddInt64(&sl.series, int64(len(m)))
		return m, start, end, err
	}
	begin := time.Now()
	m, start, end, err := op.window(p, ts)
	atomic.AddInt64(&sl.wallNs, int64(time.Since(begin)))
	atomic.AddInt64(&sl.timed, 1)
	atomic.AddInt64(&sl.series, int64(len(m)))
	return m, start, end, err
}

// noteSamples attributes stored samples to the scan operator that
// accounted them.
func (p *part) noteSamples(sx, n int) {
	atomic.AddInt64(&p.st.opStats[sx].samples, int64(n))
}

func (p *part) account(n int) error {
	max := p.st.eng.opts.MaxSamples
	if p.asamples != nil {
		total := p.asamples.Add(int64(n))
		if max > 0 && total > int64(max) {
			return ErrTooManySamples
		}
	} else {
		p.samples += n
		if max > 0 && p.samples > max {
			return ErrTooManySamples
		}
	}
	return p.ctx.Err()
}

// scalar evaluates an operator that must yield a scalar.
func (p *part) scalar(op physOp, ts int64) (float64, error) {
	v, err := p.eval(op, ts)
	if err != nil {
		return 0, err
	}
	s, ok := v.(Scalar)
	if !ok {
		return 0, fmt.Errorf("promql: expected scalar, got %s", v.ValueType())
	}
	return s.V, nil
}

// vector evaluates an operator that must yield an instant vector,
// preferring the unboxed vecExecer path when the operator provides it.
func (p *part) vector(op physOp, ts int64) (Vector, error) {
	if ve, ok := op.(vecExecer); ok {
		return p.evalVec(ve, ts)
	}
	v, err := p.eval(op, ts)
	if err != nil {
		return nil, err
	}
	vec, ok := v.(Vector)
	if !ok {
		return nil, fmt.Errorf("promql: expected instant vector, got %s", v.ValueType())
	}
	return vec, nil
}

// keyOf resolves a label set's canonical key: stored series labels
// resolve to their cached fingerprint, fresh label sets compute it. Parts
// with an arena also hit its derived-label key cache (same strings, no
// rebuild).
func (p *part) keyOf(ls tsdb.Labels) string {
	if p.al != nil {
		return p.al.keyFor(ls)
	}
	if len(ls) == 0 {
		return ls.Key()
	}
	if k, ok := p.st.keys[labelsRef{&ls[0], len(ls)}]; ok {
		return k
	}
	return ls.Key()
}

// instant serves a selector read at adjusted timestamp ts, stamping
// samples with outT — cursor-based when the part owns cursors, stateless
// binary search otherwise. Results are in fingerprint order because the
// prefetch is.
func (p *part) instant(scanIdx, cur int, ts, outT int64) Vector {
	series := p.seriesFor(scanIdx)
	atomic.AddInt64(&p.st.services[scanIdx], 1)
	lookback := p.st.lookbackMs
	out := p.al.vec(len(series))
	if p.cursors != nil {
		cu := &p.cursors[cur]
		if cu.inst == nil {
			cu.inst = make([]int, len(series))
		}
		scan := cu.instPos && ts >= cu.instT
		if cu.instPos && ts < cu.instT {
			p.st.resets.Add(1)
		}
		cu.instT, cu.instPos = ts, true
		for i, sv := range series {
			idx := seekAfter(sv.Samples, cu.inst[i], ts, scan)
			cu.inst[i] = idx
			if idx == 0 {
				continue
			}
			smp := sv.Samples[idx-1]
			if smp.T < ts-lookback {
				continue
			}
			out = append(out, VSample{Labels: sv.Labels, T: outT, V: smp.V})
		}
		return out
	}
	for _, sv := range series {
		idx := seekAfter(sv.Samples, 0, ts, false)
		if idx == 0 {
			continue
		}
		smp := sv.Samples[idx-1]
		if smp.T < ts-lookback {
			continue
		}
		out = append(out, VSample{Labels: sv.Labels, T: outT, V: smp.V})
	}
	return out
}

// windows serves a matrix window (start, end] plus total sample count.
func (p *part) windows(scanIdx, cur int, start, end int64) (Matrix, int) {
	series := p.seriesFor(scanIdx)
	atomic.AddInt64(&p.st.services[scanIdx], 1)
	out := p.al.mat(len(series))
	total := 0
	if p.cursors != nil {
		cu := &p.cursors[cur]
		if cu.lo == nil {
			cu.lo = make([]int, len(series))
			cu.hi = make([]int, len(series))
		}
		scan := cu.winPos && start >= cu.winStart && end >= cu.winEnd
		if cu.winPos && !scan {
			p.st.resets.Add(1)
		}
		cu.winStart, cu.winEnd, cu.winPos = start, end, true
		for i, sv := range series {
			lo := seekAfter(sv.Samples, cu.lo[i], start, scan)
			hi := seekAfter(sv.Samples, cu.hi[i], end, scan)
			cu.lo[i], cu.hi[i] = lo, hi
			if hi <= lo {
				continue
			}
			out = append(out, MSeries{Labels: sv.Labels, Samples: sv.Samples[lo:hi]})
			total += hi - lo
		}
		return out, total
	}
	for _, sv := range series {
		lo := seekAfter(sv.Samples, 0, start, false)
		hi := seekAfter(sv.Samples, 0, end, false)
		if hi <= lo {
			continue
		}
		out = append(out, MSeries{Labels: sv.Labels, Samples: sv.Samples[lo:hi]})
		total += hi - lo
	}
	return out, total
}

// rangeFuncParallel fans one range function out across series chunks,
// then assembles results in series order — position-indexed slots keep
// the output identical to the sequential kernel.
func (p *part) rangeFuncParallel(name string, matrix Matrix, start, end, ts int64, scalarParam float64) (Vector, error) {
	type res struct {
		v   float64
		ok  bool
		err error
	}
	results := make([]res, len(matrix))
	nw := p.st.workers
	if nw > len(matrix) {
		nw = len(matrix)
	}
	var wg sync.WaitGroup
	chunk := (len(matrix) + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(matrix) {
			hi = len(matrix)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				// nil alloc: worker goroutines must not share a part's
				// single-goroutine arena (instant parts carry none anyway).
				v, ok, err := rangeSeriesValue(nil, name, matrix[i].Samples, start, end, ts, scalarParam)
				results[i] = res{v: v, ok: ok, err: err}
			}
		}(lo, hi)
	}
	wg.Wait()
	out := make(Vector, 0, len(matrix))
	for i, series := range matrix {
		r := results[i]
		if r.err != nil {
			return nil, r.err
		}
		if !r.ok {
			continue
		}
		out = append(out, VSample{Labels: dropName(series.Labels), T: ts, V: r.v})
	}
	out.Sort()
	return out, nil
}

// --- engine entry points -------------------------------------------------

// execInstant evaluates one instant through the compiled plan.
func (e *Engine) execInstant(ctx context.Context, expr Expr, ts time.Time) (Value, error) {
	begin := time.Now()
	cp, cacheHit, err := e.planFor(expr)
	if err != nil {
		return nil, err
	}
	tsMs := ts.UnixMilli()
	st := e.newExecState(cp, tsMs, tsMs)
	p := st.newInstantPart(ctx)
	v, err := p.eval(cp.root, tsMs)
	samples := int(p.asamples.Load())
	if e.hooks.OnSamples != nil {
		e.hooks.OnSamples(samples)
	}
	if sp := obs.SpanFrom(ctx); sp.Recording() {
		sp.SetAttr("promql.samples_loaded", samples)
		sp.SetAttr("promql.plan", cp.plan.Compact())
	}
	if cap, ok := statsCaptureFrom(ctx); ok && err == nil {
		cap.set(st.buildStats(expr.String(), "instant", begin, int64(samples), 1, cacheHit))
	}
	return v, err
}

// numPartitions picks the partition count for a step range.
func numPartitions(nSteps, workers int) int {
	if workers <= 1 || nSteps < 2*minStepsPerPartition {
		return 1
	}
	n := nSteps / minStepsPerPartition
	if n > workers {
		n = workers
	}
	return n
}

// stepError records the earliest failing step of one partition.
type stepError struct {
	idx int
	err error
}

// execRange evaluates a range query through the compiled plan.
func (e *Engine) execRange(ctx context.Context, expr Expr, start, end time.Time, step time.Duration) (Matrix, error) {
	begin := time.Now()
	cp, cacheHit, err := e.planFor(expr)
	if err != nil {
		return nil, err
	}
	var steps []int64
	for t := start; !t.After(end); t = t.Add(step) {
		steps = append(steps, t.UnixMilli())
	}
	st := e.newExecState(cp, steps[0], steps[len(steps)-1])
	if e.hooks.OnRangeEval != nil {
		defer func() { e.hooks.OnRangeEval(st.stats()) }()
	}
	defer func() {
		if sp := obs.SpanFrom(ctx); sp.Recording() {
			sp.SetAttr("promql.samples_loaded", int(st.totalSamples.Load()))
			sp.SetAttr("promql.steps", len(steps))
			rs := st.stats()
			sp.SetAttr("promql.selector_cache", map[string]int{
				"hits": rs.SelectorHits, "misses": rs.SelectorMisses,
			})
			sp.SetAttr("promql.plan", cp.plan.Compact())
		}
	}()

	nparts := numPartitions(len(steps), st.workers)
	accs := make([]*rangeAcc, nparts)
	if nparts <= 1 {
		p := st.newCursorPart(ctx)
		accs[0] = newRangeAcc()
		se := p.runSpan(cp.root, steps, 0, len(steps), accs[0])
		p.releaseAllocs()
		if se.idx >= 0 {
			return nil, se.err
		}
	} else if err := st.runPartitions(ctx, cp.root, steps, accs, nparts); err != nil {
		return nil, err
	}

	// Deterministic merge: steps folded into per-partition accumulators in
	// step order; partitions are contiguous, so concatenating accumulators
	// in ascending partition order keeps every series' samples
	// time-ascending, and the final sort.Strings reproduces the exact
	// series order a sequential step loop renders.
	acc, order := accs[0].acc, accs[0].order
	for _, pa := range accs[1:] {
		for _, key := range pa.order {
			src := pa.acc[key]
			if ms, ok := acc[key]; ok {
				ms.Samples = append(ms.Samples, src.Samples...)
			} else {
				acc[key] = src
				order = append(order, key)
			}
		}
	}
	sort.Strings(order)
	out := make(Matrix, 0, len(order))
	for _, k := range order {
		out = append(out, *acc[k])
	}
	if cap, ok := statsCaptureFrom(ctx); ok {
		cap.set(st.buildStats(expr.String(), "range", begin, st.totalSamples.Load(), len(steps), cacheHit))
	}
	return out, nil
}

// rangeAcc is one partition's fold target: step vectors stream into it as
// they are produced, copying each sample out of the batch arena — the
// reason batch resets are safe.
type rangeAcc struct {
	acc   map[string]*MSeries
	order []string // first-appearance order; re-sorted at merge
}

func newRangeAcc() *rangeAcc {
	return &rangeAcc{acc: make(map[string]*MSeries)}
}

// foldVec appends one step vector's samples. Labels are adopted by
// reference — label slices are never pooled, so they outlive the batch.
func (a *rangeAcc) foldVec(p *part, vec Vector, ts int64) {
	for _, s := range vec {
		key := p.keyOf(s.Labels)
		ms, ok := a.acc[key]
		if !ok {
			ms = &MSeries{Labels: s.Labels}
			a.acc[key] = ms
			a.order = append(a.order, key)
		}
		ms.Samples = append(ms.Samples, tsdb.Sample{T: ts, V: s.V})
	}
}

// foldScalar appends a scalar step under the empty key, as wrapping it in
// Vector{{Labels: nil, ...}} would.
func (a *rangeAcc) foldScalar(v float64, ts int64) {
	ms, ok := a.acc[""]
	if !ok {
		ms = &MSeries{}
		a.acc[""] = ms
		a.order = append(a.order, "")
	}
	ms.Samples = append(ms.Samples, tsdb.Sample{T: ts, V: v})
}

// keyOf on the shared state (assembly runs after all partitions joined).
func (st *execState) keyOf(ls tsdb.Labels) string {
	if len(ls) == 0 {
		return ls.Key()
	}
	if k, ok := st.keys[labelsRef{&ls[0], len(ls)}]; ok {
		return k
	}
	return ls.Key()
}

// runSpan evaluates a contiguous run of steps [lo, hi) in arena batches:
// every batch steps the partition's intermediates are recycled.
func (p *part) runSpan(root physOp, steps []int64, lo, hi int, acc *rangeAcc) stepError {
	batch := p.st.eng.batch
	ve, _ := root.(vecExecer)
	for b0 := lo; b0 < hi; b0 += batch {
		b1 := b0 + batch
		if b1 > hi {
			b1 = hi
		}
		for i := b0; i < b1; i++ {
			if err := p.runStep(root, ve, steps[i], acc); err != nil {
				return stepError{idx: i, err: err}
			}
		}
		p.resetArena()
	}
	return stepError{idx: -1}
}

// runStep evaluates one step with a fresh per-step sample budget and folds
// the result straight into the partition accumulator (no per-range value
// buffer; vector roots with a vecExecer skip the interface box entirely).
func (p *part) runStep(root physOp, ve vecExecer, ts int64, acc *rangeAcc) error {
	p.samples = 0
	var vec Vector
	var v Value
	var err error
	if ve != nil {
		vec, err = p.evalVec(ve, ts)
	} else {
		v, err = p.eval(root, ts)
	}
	p.st.totalSamples.Add(int64(p.samples))
	if hook := p.st.eng.hooks.OnSamples; hook != nil {
		hook(p.samples)
	}
	if err != nil {
		return err
	}
	if ve != nil {
		acc.foldVec(p, vec, ts)
		return nil
	}
	switch x := v.(type) {
	case Vector:
		acc.foldVec(p, x, ts)
	case Scalar:
		acc.foldScalar(x.V, ts)
	default:
		return fmt.Errorf("promql: range query requires a vector or scalar expression")
	}
	return nil
}

// runPartitions splits steps into contiguous runs, one goroutine each,
// each folding into its own accumulator (accs[w]). The first failing
// partition cancels its siblings; the reported error is the earliest
// failing step's, preferring non-cancellation causes.
func (st *execState) runPartitions(ctx context.Context, root physOp, steps []int64, accs []*rangeAcc, nparts int) error {
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]stepError, nparts)
	var wg sync.WaitGroup
	base := len(steps) / nparts
	rem := len(steps) % nparts
	lo := 0
	for w := 0; w < nparts; w++ {
		size := base
		if w < rem {
			size++
		}
		hi := lo + size
		accs[w] = newRangeAcc()
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			p := st.newCursorPart(pctx)
			errs[w] = p.runSpan(root, steps, lo, hi, accs[w])
			if errs[w].idx >= 0 {
				cancel()
			}
			p.releaseAllocs()
		}(w, lo, hi)
		lo = hi
	}
	wg.Wait()
	best := stepError{idx: -1}
	for _, se := range errs {
		if se.idx < 0 {
			continue
		}
		better := best.idx < 0 ||
			(!isCancellation(se.err) && isCancellation(best.err)) ||
			(isCancellation(se.err) == isCancellation(best.err) && se.idx < best.idx)
		if better {
			best = se
		}
	}
	return best.err
}

// isCancellation reports whether err is the context poison spread by a
// sibling partition's failure rather than a root cause.
func isCancellation(err error) bool { return err == context.Canceled }
