package promql

// exec.go — running a compiled plan (plan.go compiles it from the AST,
// physical.go holds its operators). The executor selects every
// deduplicated scan with one tsdb.SelectBatch call, which copies chunk
// snapshots under the store's lock and decodes nothing, then drives the
// operator tree through one part on the caller's goroutine. A range
// query's part runs every step in order; an instant query is a single
// step at its timestamp, whose root value is returned instead of folded.
//
// The part owns private cursors per selector use site that advance
// monotonically through its steps, and the execution's counters
// (operator stats, scan services, loaded samples), counted with plain
// adds and handed to the execution when its span ends, failed or not.
// Every scan streams: its cursor holds a tsdb.Reader per series, which
// decodes samples only as the steps reach them and keeps only those the
// current window or instant can still use, so a use site decodes each
// stored sample once. Scans under a subquery read in time order too,
// because the part evaluates each aligned inner step once
// (pSubquery.window) and the steps only move forward.
//
// Each step's vector folds into the range accumulator as soon as it is
// produced, and the arena holding the step's intermediates (pool.go)
// then resets — peak memory is one step's vectors plus the readers'
// windows, not range length × series count. The accumulated series are
// sorted by key once, after the last step. Steps are not split across
// goroutines (DESIGN §10): a second part decoded again every series'
// chunk prefix before its first step and allocated a second reader slab
// and arena, so it cost more CPU than it saved wall time.
//
// Cancellation is polled at every operator through the context's Done
// channel, read once per part; ctx.Err, which takes the context's lock,
// runs only once Done has closed.
//
// A failing range query stops at its first failing step and reports that
// step's error.
//
// Sample budgets match the test oracle exactly: each step gets a fresh
// MaxSamples budget, and subqueries inherit and extend their step's
// budget, so an instant query's is one count over its whole evaluation.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"dio/internal/obs"
	"dio/internal/tsdb"
)

// execState is the read-mostly state of one query execution: prefetched
// series per scan, the fingerprint key cache, and the counters its part
// hands over once its span ends.
type execState struct {
	eng        *Engine
	cp         *compiledPlan
	series     [][]tsdb.SeriesView
	keys       map[labelsRef]string
	lookbackMs int64

	counters

	// ids holds each operator's identity table (by statsIdx), built before
	// a range query's steps run; all nil for instant queries.
	ids []*idTable
}

// labelsRef identifies a label slice by backing array and length. Equal
// refs view the exact same elements, so (labels being immutable) they
// share one canonical key.
type labelsRef struct {
	p *tsdb.Label
	n int
}

// idTable is one operator's output identities for one execution: row i's
// labels, key and rank in key order. An instant scan has a row per series,
// a range function over a matrix scan a row per name-dropped series, an
// aggregation a row per group and, in group, each input row's group.
// Samples carry 1 + their row (VSample.pos), so consumers read labels,
// keys and order here instead of deriving them at every step.
type idTable struct {
	labels []tsdb.Labels
	keys   []string
	rank   []int32
	group  []int32
	in     *idTable // an aggregation's input table
}

// newRowTable builds a scan's table, with the metric name dropped or not.
// It returns nil when dropping the name gives two series one key: such
// outputs keep the label path.
func newRowTable(series []tsdb.SeriesView, drop bool) *idTable {
	t := &idTable{labels: make([]tsdb.Labels, len(series)), keys: make([]string, len(series))}
	for i, sv := range series {
		t.labels[i], t.keys[i] = sv.Labels, sv.Fingerprint
		if drop {
			t.labels[i] = dropName(sv.Labels)
			t.keys[i] = t.labels[i].Key()
		}
	}
	if !t.rankKeys() {
		return nil
	}
	return t
}

// newGroupTable builds an aggregation's table over its input's.
func newGroupTable(n *AggregateExpr, in *idTable) *idTable {
	t := &idTable{group: make([]int32, len(in.labels)), in: in}
	idx := make(map[string]int32)
	for i, ls := range in.labels {
		gl := groupLabels(n, ls)
		key := gl.Key()
		g, ok := idx[key]
		if !ok {
			g = int32(len(t.keys))
			idx[key] = g
			t.labels = append(t.labels, gl)
			t.keys = append(t.keys, key)
		}
		t.group[i] = g
	}
	t.rankKeys() // group keys are distinct
	return t
}

// rankKeys fills rank, reporting false when two rows share a key.
func (t *idTable) rankKeys() bool {
	order := make([]int32, len(t.keys))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(t.keys[a], t.keys[b]) })
	t.rank = make([]int32, len(order))
	for r, i := range order {
		if r > 0 && t.keys[order[r-1]] == t.keys[i] {
			return false
		}
		t.rank[i] = int32(r)
	}
	return true
}

// sortByRank sorts v, whose samples all carry rows of t, into key order,
// comparing integers and only when the rows come out of order.
func (t *idTable) sortByRank(v Vector) {
	byRank := func(a, b VSample) int { return int(t.rank[a.pos-1]) - int(t.rank[b.pos-1]) }
	if !slices.IsSortedFunc(v, byRank) {
		slices.SortFunc(v, byRank)
	}
}

// buildIDs builds the identity tables of op's subtree, inputs first.
func (st *execState) buildIDs(op physOp) {
	var buf [4]physOp
	for _, k := range opKids(op, buf[:0]) {
		st.buildIDs(k)
	}
	switch o := op.(type) {
	case *pScan:
		st.ids[o.sx] = newRowTable(st.series[o.scanIdx], false)
	case *pRangeFunc:
		if m, ok := o.arg.(*pMatrix); ok {
			st.ids[o.sx] = newRowTable(st.series[m.scanIdx], true)
		}
	case *pAgg:
		if in := st.posTable(o.child); in != nil {
			st.ids[o.sx] = newGroupTable(o.ast, in)
		}
	}
}

// posTable returns the table whose rows op's output samples carry, or nil
// when they carry none: topk and bottomk pass their input's rows through,
// and count_values makes new label sets.
func (st *execState) posTable(op physOp) *idTable {
	switch o := op.(type) {
	case *pScan, *pRangeFunc:
		return st.ids[op.statsIdx()]
	case *pAgg:
		switch o.ast.Op {
		case AggTopK, AggBottomK:
			return st.posTable(o.child)
		case AggCountValues:
			return nil
		}
		return st.ids[o.sx]
	}
	return nil
}

// sampleKey is s's label key: its row's when s carries a row of t.
func (st *execState) sampleKey(t *idTable, s VSample) string {
	if t != nil && s.pos > 0 {
		return t.keys[s.pos-1]
	}
	return st.keyOf(s.Labels)
}

// counters are one execution's statistics, counted by its part with
// plain adds.
type counters struct {
	ops      []opSlot // per operator, by statsIdx: the EXPLAIN ANALYZE slab
	services []int64  // per scan: operator reads served
	loaded   int64    // stored samples accounted by a range part's steps
	peak     int64    // pooled-intermediate high-water mark
}

func (st *execState) newCounters() counters {
	return counters{ops: make([]opSlot, len(st.cp.labels)), services: make([]int64, len(st.cp.scans))}
}

// newExecState selects every scan of the plan for an evaluation range
// [startMs, endMs] and seeds the fingerprint key cache. It decodes
// nothing: cursors stream every scan.
func (e *Engine) newExecState(cp *compiledPlan, startMs, endMs int64) *execState {
	st := &execState{
		eng:        e,
		cp:         cp,
		keys:       make(map[labelsRef]string),
		lookbackMs: e.opts.LookbackDelta.Milliseconds(),
		ids:        make([]*idTable, len(cp.labels)),
	}
	st.series = e.db.SelectBatch(cp.selectHints(startMs, endMs))
	for _, views := range st.series {
		for _, sv := range views {
			if len(sv.Labels) > 0 {
				st.keys[labelsRef{&sv.Labels[0], len(sv.Labels)}] = sv.Fingerprint
			}
		}
	}
	return st
}

// stats summarises the execution's counters for the engine's
// observation hooks: misses are the distinct storage fetches (one per
// deduplicated scan), hits the operator reads served beyond each scan's
// first.
func (st *execState) stats() RangeStats {
	services := 0
	for _, n := range st.services {
		services += int(n)
	}
	misses := len(st.cp.scans)
	return RangeStats{
		SelectorHits:          max(services-misses, 0),
		SelectorMisses:        misses,
		PeakIntermediateBytes: st.peak,
	}
}

// readers returns the use site's cursor, a reader per series, made at
// its first read with room for span ms of samples per series.
func (p *part) readers(scanIdx, cur int, span int64) []tsdb.Reader {
	rd := p.cursors[cur]
	if rd == nil {
		rd = tsdb.NewReaders(p.st.series[scanIdx], span)
		p.cursors[cur] = rd
	}
	return rd
}

// part drives the operator tree on the caller's goroutine: through every
// step of a range query, or an instant query's single step.
type part struct {
	st   *execState
	ctx  context.Context
	done <-chan struct{} // ctx.Done(), read once for cancelled
	// samples is the current step's sample budget spent so far.
	samples int
	// cursors holds one slot per selector use site, advanced monotonically
	// through the steps.
	cursors [][]tsdb.Reader
	// subs holds one slot per subquery: the inner steps still inside its
	// latest window, oldest first.
	subs [][]innerStep
	// al, when non-nil, is the part's step arena (pool.go): every
	// intermediate container its operators produce comes from it and is
	// recycled once the step is folded. Nil when the step's value
	// escapes to the caller (instant queries): all methods degrade to
	// plain heap allocation.
	al *alloc
	counters
}

// newPart returns a part with fresh cursors and counters, and a step
// arena when arena is set (and the engine has not turned arenas off).
func (st *execState) newPart(ctx context.Context, arena bool) *part {
	p := &part{st: st, ctx: ctx, done: ctx.Done(), cursors: make([][]tsdb.Reader, st.cp.nCursors),
		subs: make([][]innerStep, st.cp.nSubs), counters: st.newCounters()}
	if arena && !st.eng.noArena {
		p.al = allocPool.Get().(*alloc)
	}
	return p
}

// finish ends the part's span, failed or not: its arena returns to the
// global pool and its counters pass to the execution.
func (p *part) finish() {
	p.peak = p.al.release()
	p.al = nil
	p.st.counters = p.counters
}

// cancelled polls the part's context at an operator boundary.
func (p *part) cancelled() error {
	select {
	case <-p.done:
		return p.ctx.Err()
	default:
		return nil
	}
}

// eval runs one operator, enforcing cancellation at every node, and
// accumulates the operator's call count and output series into the part's
// pre-sized slot — plain adds, no allocation, and never a change to the
// value flowing through.
func (p *part) eval(op physOp, ts int64) (Value, error) {
	if err := p.cancelled(); err != nil {
		return nil, err
	}
	begin := p.enter(op.statsIdx())
	v, err := op.exec(p, ts)
	p.leave(op.statsIdx(), begin, seriesIn(v))
	return v, err
}

// evalVec is eval for operators that statically produce vectors (the
// vecExecer fast path): identical cancellation and stats behaviour, but
// the value never crosses an interface boundary — on the per-step hot
// path that interface box was one heap allocation per operator per step.
func (p *part) evalVec(op vecExecer, ts int64) (Vector, error) {
	if err := p.cancelled(); err != nil {
		return nil, err
	}
	begin := p.enter(op.statsIdx())
	v, err := op.execVec(p, ts)
	p.leave(op.statsIdx(), begin, len(v))
	return v, err
}

// window runs a window-producing operator (the pRangeFunc input path,
// which bypasses eval), mirroring eval's stats collection.
func (p *part) window(op windowOp, ts int64) (Matrix, int64, int64, error) {
	if err := p.cancelled(); err != nil {
		return nil, 0, 0, err
	}
	begin := p.enter(op.statsIdx())
	m, start, end, err := op.window(p, ts)
	p.leave(op.statsIdx(), begin, len(m))
	return m, start, end, err
}

// enter counts one call of the operator in slot sx. Wall time is sampled
// (every statsTimeEvery-th call per operator and part, the first
// included): enter returns the start time of a timed call and the zero
// time otherwise, and buildOp scales the sum back up. On hosts without a
// cheap monotonic clock a per-call time.Now pair alone cost 16% on the
// dashboard mix.
func (p *part) enter(sx int) time.Time {
	sl := &p.ops[sx]
	sl.calls++
	if (sl.calls-1)&(statsTimeEvery-1) != 0 {
		return time.Time{}
	}
	return time.Now()
}

// leave closes a call opened by enter, adding its output series.
func (p *part) leave(sx int, begin time.Time, series int) {
	sl := &p.ops[sx]
	if !begin.IsZero() {
		sl.wallNs += int64(time.Since(begin))
		sl.timed++
	}
	sl.series += int64(series)
}

// noteSamples attributes stored samples to the scan operator that
// accounted them.
func (p *part) noteSamples(sx, n int) {
	p.ops[sx].samples += int64(n)
}

func (p *part) account(n int) error {
	p.samples += n
	if max := p.st.eng.opts.MaxSamples; max > 0 && p.samples > max {
		return ErrTooManySamples
	}
	return p.cancelled()
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

// instant serves a selector read at adjusted timestamp ts off the use
// site's readers, stamping samples with outT and their scan position.
// Results are in fingerprint order because the selection is.
func (p *part) instant(scanIdx, cur int, ts, outT int64) Vector {
	series := p.st.series[scanIdx]
	p.services[scanIdx]++
	rd := p.readers(scanIdx, cur, 0)
	out := p.al.vec(len(series))
	for i := range rd {
		if smp, ok := rd[i].Latest(ts-p.st.lookbackMs, ts); ok {
			out = append(out, VSample{Labels: series[i].Labels, T: outT, V: smp.V, pos: int32(i + 1)})
		}
	}
	return out
}

// seek reads a matrix scan's window (start, end] off the use site's
// readers, which then return series i's window from Last. It returns the
// readers, how many series have samples in the window and how many
// samples they hold.
func (p *part) seek(scanIdx, cur int, start, end int64) (rd []tsdb.Reader, n, total int) {
	p.services[scanIdx]++
	rd = p.readers(scanIdx, cur, end-start)
	for i := range rd {
		if w := rd[i].Window(start+1, end); len(w) > 0 {
			n++
			total += len(w)
		}
	}
	return rd, n, total
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
	// One step at tsMs. Its value escapes to the caller, so the part runs
	// without an arena.
	p := st.newPart(ctx, false)
	v, err := p.eval(cp.root, tsMs)
	p.finish()
	if sp := obs.SpanFrom(ctx); sp.Recording() {
		sp.SetAttr("promql.samples_loaded", p.samples)
		sp.SetAttr("promql.plan", cp.compact)
	}
	st.deposit(ctx, expr, "instant", begin, int64(p.samples), 1, cacheHit)
	return v, err
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
	st.buildIDs(cp.root)
	acc := rangeAcc{acc: make(map[string]*MSeries)}
	p := st.newPart(ctx, true)
	err = p.runSpan(cp.root, steps, &acc)
	p.finish()

	rs := st.stats()
	if e.hooks.OnRangeEval != nil {
		e.hooks.OnRangeEval(rs)
	}
	if sp := obs.SpanFrom(ctx); sp.Recording() {
		sp.SetAttr("promql.samples_loaded", int(st.loaded))
		sp.SetAttr("promql.steps", len(steps))
		sp.SetAttr("promql.selector_cache", map[string]int{
			"hits": rs.SelectorHits, "misses": rs.SelectorMisses,
		})
		sp.SetAttr("promql.plan", cp.compact)
	}
	if err != nil {
		st.deposit(ctx, expr, "range", begin, st.loaded, len(steps), cacheHit)
		return nil, err
	}
	// Steps folded in order, so every series' samples are time-ascending;
	// sorting the keys gives the series order the oracle renders.
	sort.Strings(acc.order)
	out := make(Matrix, 0, len(acc.order))
	for _, k := range acc.order {
		out = append(out, *acc.acc[k])
	}
	st.deposit(ctx, expr, "range", begin, st.loaded, len(steps), cacheHit)
	return out, nil
}

// rangeAcc is a range query's fold target: step vectors stream into it as
// they are produced, copying each sample out of the step arena — the
// reason per-step resets are safe.
type rangeAcc struct {
	acc   map[string]*MSeries
	order []string // first-appearance order; sorted after the last step
}

// foldVec appends one step vector's samples, keyed by their rows of the
// root's table ids. Labels are adopted by reference — label slices are
// never pooled, so they outlive the step.
func (a *rangeAcc) foldVec(st *execState, ids *idTable, vec Vector, ts int64) {
	for _, s := range vec {
		key := st.sampleKey(ids, s)
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

// keyOf resolves a label set's canonical key: stored series labels
// resolve to their cached fingerprint, fresh label sets compute it. The
// cache is read-only once the execution starts.
func (st *execState) keyOf(ls tsdb.Labels) string {
	if len(ls) == 0 {
		return ls.Key()
	}
	if k, ok := st.keys[labelsRef{&ls[0], len(ls)}]; ok {
		return k
	}
	return ls.Key()
}

// runSpan evaluates every step in order, recycling the part's
// intermediates once each step is folded, and stops at the first step
// that fails.
func (p *part) runSpan(root physOp, steps []int64, acc *rangeAcc) error {
	ve, _ := root.(vecExecer)
	ids := p.st.posTable(root)
	for _, ts := range steps {
		if err := p.runStep(root, ve, ids, ts, acc); err != nil {
			return err
		}
		p.al.reset()
	}
	return nil
}

// runStep evaluates one step with a fresh per-step sample budget and folds
// the result straight into the range accumulator (no per-range value
// buffer; vector roots with a vecExecer skip the interface box entirely).
func (p *part) runStep(root physOp, ve vecExecer, ids *idTable, ts int64, acc *rangeAcc) error {
	p.samples = 0
	var vec Vector
	var v Value
	var err error
	if ve != nil {
		vec, err = p.evalVec(ve, ts)
	} else {
		v, err = p.eval(root, ts)
	}
	p.loaded += int64(p.samples)
	if err != nil {
		return err
	}
	if ve != nil {
		acc.foldVec(p.st, ids, vec, ts)
		return nil
	}
	switch x := v.(type) {
	case Vector:
		acc.foldVec(p.st, ids, x, ts)
	case Scalar:
		acc.foldScalar(x.V, ts)
	default:
		return fmt.Errorf("promql: range query requires a vector or scalar expression")
	}
	return nil
}
