package promql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"dio/internal/obs"
	"dio/internal/tenant"
	"dio/internal/tsdb"
)

// EngineOptions configures query evaluation.
type EngineOptions struct {
	// LookbackDelta bounds how far back an instant selector may reach for
	// the latest sample (Prometheus default: 5m).
	LookbackDelta time.Duration
	// MaxSamples aborts queries that touch more than this many samples;
	// zero means unlimited.
	MaxSamples int
	// Timeout aborts long evaluations; zero means no engine-level timeout
	// (context cancellation still applies).
	Timeout time.Duration
	// MaxConcurrent caps queries evaluating at once; excess queries wait
	// in a semaphore queue (and fail if their context is cancelled while
	// queued). Zero means unlimited.
	MaxConcurrent int
	// ExecWorkers caps the goroutines the plan executor may use for one
	// query (step partitions, parallel plan branches, per-series
	// partitions). Zero picks min(GOMAXPROCS, 16); 1 forces sequential
	// execution.
	ExecWorkers int
}

// DefaultEngineOptions mirrors Prometheus defaults.
func DefaultEngineOptions() EngineOptions {
	return EngineOptions{LookbackDelta: 5 * time.Minute, MaxSamples: 50_000_000, Timeout: 2 * time.Minute, MaxConcurrent: 20}
}

// Hooks observe engine behaviour without coupling evaluation to any
// metrics implementation (package obs supplies the histograms).
type Hooks struct {
	// QueueWait receives how long each gated query waited for a
	// concurrency slot (only called when MaxConcurrent > 0).
	QueueWait func(time.Duration)
	// OnSamples receives the number of stored samples each top-level
	// evaluation touched.
	OnSamples func(int)
	// OnRangeEval receives the select-once statistics of each range query.
	OnRangeEval func(RangeStats)
	// OnFanout receives the duration of each sharded storage fan-out (the
	// batched per-shard select + merge). Only called when the engine
	// fronts a ShardedDB.
	OnFanout func(time.Duration)
	// OnQueryStart fires when a query begins evaluating (after the
	// concurrency gate), instant and range alike. The returned func fires
	// when the query finishes, whatever the outcome: the active-query
	// tracker's insert/release pair.
	OnQueryStart func(query, kind, traceID string) func()
	// OnQueryDone receives every finished query's log entry — the
	// slow-query log's feed. Entries of successful queries carry the
	// compact analyzed plan.
	OnQueryDone func(obs.QueryLogEntry)
}

// RangeStats summarises select-once evaluation for one range query.
type RangeStats struct {
	// SelectorHits counts selector evaluations served from the per-query
	// series cache (every step after the first, for each selector).
	SelectorHits int
	// SelectorMisses counts selector fetches that went to storage (one per
	// distinct selector node).
	SelectorMisses int
	// CursorResets counts cursor re-seeks caused by non-monotone
	// evaluation timestamps (subqueries re-anchoring their inner
	// timeline).
	CursorResets int
	// DistPartials counts distribute-node evaluations served by per-shard
	// partial aggregation; DistFallbacks counts evaluations that fell
	// back to gather-then-evaluate (demoted by a runtime order guard).
	// Both stay zero on unsharded storage.
	DistPartials  int
	DistFallbacks int
	// PeakIntermediateBytes is the high-water mark of pooled intermediate
	// memory across all partitions of the query — the figure the batched
	// executor bounds by its batch size.
	PeakIntermediateBytes int64
}

// Engine evaluates parsed expressions against a tsdb.Storage — a single
// DB or a ShardedDB. It is safe for concurrent use.
type Engine struct {
	db   tsdb.Storage
	opts EngineOptions
	// sharded is set when db fronts more than one shard; it unlocks the
	// distribute optimizer pass and per-shard partial aggregation.
	sharded *tsdb.ShardedDB
	gate    chan struct{}
	hooks   Hooks

	// batch is the number of range steps evaluated between arena resets
	// (defaultBatchSize); noArena runs range partitions on the nil arena,
	// the plain-heap path instant queries always take. In-package tests
	// set them to move batch boundaries and to check that results never
	// depend on recycling; nothing else does.
	batch   int
	noArena bool

	// Compiled plans are cached by canonical expression string: plans
	// store scan hints as offsets relative to the evaluation range, so
	// one plan serves every timestamp — dashboard panels repeating the
	// same PromQL share a single planner pass.
	planMu sync.Mutex
	plans  map[string]*compiledPlan
}

// maxCachedPlans bounds the plan cache; on overflow the cache is cleared
// (plans are cheap to rebuild, an LRU would be overkill).
const maxCachedPlans = 512

// NewEngine returns an engine over db.
func NewEngine(db tsdb.Storage, opts EngineOptions) *Engine {
	if opts.LookbackDelta <= 0 {
		opts.LookbackDelta = 5 * time.Minute
	}
	if opts.ExecWorkers <= 0 {
		opts.ExecWorkers = runtime.GOMAXPROCS(0)
		if opts.ExecWorkers > 16 {
			opts.ExecWorkers = 16
		}
	}
	e := &Engine{db: db, opts: opts, plans: make(map[string]*compiledPlan), batch: defaultBatchSize}
	if sh, ok := db.(*tsdb.ShardedDB); ok && sh.NumShards() > 1 {
		e.sharded = sh
	}
	if opts.MaxConcurrent > 0 {
		e.gate = make(chan struct{}, opts.MaxConcurrent)
	}
	return e
}

// planFor compiles (or fetches from cache) the physical plan for expr.
// hit reports whether the plan came from the cache (surfaced by EXPLAIN
// ANALYZE as the plan-cache annotation).
func (e *Engine) planFor(expr Expr) (cp *compiledPlan, hit bool, err error) {
	key := expr.String()
	e.planMu.Lock()
	defer e.planMu.Unlock()
	if cp, ok := e.plans[key]; ok {
		return cp, true, nil
	}
	plan, err := newPlan(expr, e.opts)
	if err != nil {
		return nil, false, err
	}
	if e.sharded != nil {
		distributePlan(plan, e.sharded.NumShards())
	}
	cp, err = compilePlan(plan)
	if err != nil {
		return nil, false, err
	}
	if len(e.plans) >= maxCachedPlans {
		e.plans = make(map[string]*compiledPlan)
	}
	e.plans[key] = cp
	return cp, false, nil
}

// Explain parses input and returns the optimized plan rendered as an
// operator tree, with the optimizer passes that applied. The same string
// is attached to traces as the promql.plan attribute in compact form.
func (e *Engine) Explain(input string) (string, error) {
	expr, err := Parse(input)
	if err != nil {
		return "", err
	}
	return e.ExplainExpr(expr)
}

// ExplainExpr is Explain for an already parsed expression.
func (e *Engine) ExplainExpr(expr Expr) (string, error) {
	cp, _, err := e.planFor(expr)
	if err != nil {
		return "", err
	}
	return cp.plan.Tree(), nil
}

// ExplainCompact returns the one-line plan form — the same string the
// executor attaches to trace spans as the promql.plan attribute.
func (e *Engine) ExplainCompact(expr Expr) (string, error) {
	cp, _, err := e.planFor(expr)
	if err != nil {
		return "", err
	}
	return cp.plan.Compact(), nil
}

// ExplainAnalyze executes input at ts and returns the plan annotated with
// the measured per-operator statistics (wall time with hot-path
// percentages, calls, output series, samples scanned, per-shard fan-out
// latencies). The query really runs — budget, gate and hooks included.
func (e *Engine) ExplainAnalyze(ctx context.Context, input string, ts time.Time) (string, error) {
	expr, err := Parse(input)
	if err != nil {
		return "", err
	}
	ctx, cap := WithQueryStats(ctx)
	if _, err := e.Eval(ctx, expr, ts); err != nil {
		return "", err
	}
	return cap.Stats().Render(), nil
}

// SetHooks installs observation hooks. Call before the engine serves
// concurrent queries.
func (e *Engine) SetHooks(h Hooks) { e.hooks = h }

// finishNothing is beginQuery's no-op finish when no query hooks are set.
func finishNothing(error) {}

// beginQuery opens query-level observability for one evaluation: it
// registers the query with the active-query tracker hook, installs a
// stats capture when the slow-query log wants analyzed plans and the
// caller did not bring its own, and returns a finish func fired with the
// evaluation outcome.
func (e *Engine) beginQuery(ctx context.Context, expr Expr, kind string) (context.Context, func(error)) {
	if e.hooks.OnQueryStart == nil && e.hooks.OnQueryDone == nil {
		return ctx, finishNothing
	}
	query := expr.String()
	traceID := obs.SpanFrom(ctx).TraceID()
	start := time.Now()
	var release func()
	if e.hooks.OnQueryStart != nil {
		release = e.hooks.OnQueryStart(query, kind, traceID)
	}
	if e.hooks.OnQueryDone != nil {
		if _, ok := statsCaptureFrom(ctx); !ok {
			ctx, _ = WithQueryStats(ctx)
		}
	}
	fctx := ctx
	return ctx, func(evalErr error) {
		if release != nil {
			release()
		}
		if e.hooks.OnQueryDone == nil {
			return
		}
		ent := obs.QueryLogEntry{
			Query:    query,
			Kind:     kind,
			Tenant:   tenant.From(fctx),
			TraceID:  traceID,
			Start:    start,
			Duration: time.Since(start),
		}
		if evalErr != nil {
			ent.Err = evalErr.Error()
		}
		if cap, ok := statsCaptureFrom(fctx); ok {
			if qs := cap.Stats(); qs != nil {
				ent.Samples = qs.Samples
				ent.Steps = qs.Steps
				ent.Plan = qs.Compact()
			}
		}
		e.hooks.OnQueryDone(ent)
	}
}

// DB returns the engine's backing store.
func (e *Engine) DB() tsdb.Storage { return e.db }

// enter acquires a concurrency slot, reporting the queue wait. It returns
// immediately when the engine is ungated.
func (e *Engine) enter(ctx context.Context) error {
	if e.gate == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	select {
	case e.gate <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	if e.hooks.QueueWait != nil {
		e.hooks.QueueWait(time.Since(start))
	}
	return nil
}

// exit releases the concurrency slot taken by enter.
func (e *Engine) exit() {
	if e.gate != nil {
		<-e.gate
	}
}

// maxRangeSteps bounds the steps of one range query (Prometheus's limit of
// 11,000 points per series).
const maxRangeSteps = 11000

// ErrTooManySamples is returned when a query exceeds MaxSamples.
var ErrTooManySamples = errors.New("promql: query touches too many samples")

// Query parses and evaluates input at ts.
func (e *Engine) Query(ctx context.Context, input string, ts time.Time) (Value, error) {
	expr, err := Parse(input)
	if err != nil {
		return nil, err
	}
	return e.Eval(ctx, expr, ts)
}

// Eval evaluates expr at the instant ts, waiting for a concurrency slot
// when the engine is gated.
func (e *Engine) Eval(ctx context.Context, expr Expr, ts time.Time) (v Value, err error) {
	if err := e.enter(ctx); err != nil {
		return nil, err
	}
	defer e.exit()
	ctx, fin := e.beginQuery(ctx, expr, "instant")
	defer func() { fin(err) }()
	if e.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.opts.Timeout)
		defer cancel()
	}
	return e.execInstant(ctx, expr, ts)
}

// QueryRange evaluates input at every step in [start, end], producing a
// matrix (used by dashboard panels). Storage selection runs once per
// selector for the whole range: every step after the first advances
// per-series cursors over the fetched samples instead of re-running
// Select/SelectRange.
func (e *Engine) QueryRange(ctx context.Context, input string, start, end time.Time, step time.Duration) (Matrix, error) {
	expr, err := Parse(input)
	if err != nil {
		return nil, err
	}
	return e.QueryRangeExpr(ctx, expr, start, end, step)
}

// QueryRangeExpr is QueryRange for an already parsed expression — callers
// that repeat one query over many windows (dashboards, benchmarks) skip
// the per-evaluation parse.
func (e *Engine) QueryRangeExpr(ctx context.Context, expr Expr, start, end time.Time, step time.Duration) (m Matrix, err error) {
	if step <= 0 {
		return nil, fmt.Errorf("promql: non-positive step %v", step)
	}
	if end.Before(start) {
		return nil, fmt.Errorf("promql: range end precedes start")
	}
	// Refused before the gate, the plan and the step slice: MaxSamples is a
	// per-step budget, so nothing else bounds what a tiny step allocates.
	if n := int64(end.Sub(start)/step) + 1; n > maxRangeSteps {
		return nil, fmt.Errorf("promql: range of %d steps exceeds the maximum of %d; use a larger step", n, maxRangeSteps)
	}
	if err := e.enter(ctx); err != nil {
		return nil, err
	}
	defer e.exit()
	ctx, fin := e.beginQuery(ctx, expr, "range")
	defer func() { fin(err) }()
	// The engine timeout spans the whole range evaluation.
	if e.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.opts.Timeout)
		defer cancel()
	}
	return e.execRange(ctx, expr, start, end, step)
}

// dropName removes __name__, as Prometheus does for any operation that
// changes the meaning of a series' values.
func dropName(ls tsdb.Labels) tsdb.Labels { return ls.Without(tsdb.MetricNameLabel) }

func parseLE(s string) (float64, error) {
	if s == "+Inf" || s == "inf" || s == "Inf" {
		return math.Inf(1), nil
	}
	var v float64
	_, err := fmt.Sscanf(s, "%g", &v)
	return v, err
}

// bucket is one cumulative histogram bucket (le upper bound, count).
type bucket struct {
	le    float64
	count float64
}

// bucketQuantile interpolates the φ-quantile from cumulative buckets.
func bucketQuantile(phi float64, bs []bucket) float64 {
	if len(bs) < 2 || math.IsInf(bs[len(bs)-1].le, -1) {
		return math.NaN()
	}
	if !math.IsInf(bs[len(bs)-1].le, 1) {
		return math.NaN()
	}
	total := bs[len(bs)-1].count
	if total == 0 {
		return math.NaN()
	}
	rank := phi * total
	i := 0
	for i < len(bs)-1 && bs[i].count < rank {
		i++
	}
	if i == 0 {
		upper := bs[0].le
		if upper <= 0 {
			return upper
		}
		return upper * rank / bs[0].count
	}
	if i == len(bs)-1 {
		return bs[len(bs)-2].le
	}
	lowerBound, upperBound := bs[i-1].le, bs[i].le
	lowerCount, upperCount := bs[i-1].count, bs[i].count
	if upperCount == lowerCount {
		return upperBound
	}
	return lowerBound + (upperBound-lowerBound)*(rank-lowerCount)/(upperCount-lowerCount)
}

// binArith applies op to two floats. keep reports whether a comparison
// (without bool) keeps the sample.
func binArith(op BinOp, l, r float64, returnBool bool) (float64, bool) {
	switch op {
	case OpAdd:
		return l + r, true
	case OpSub:
		return l - r, true
	case OpMul:
		return l * r, true
	case OpDiv:
		return l / r, true
	case OpMod:
		return math.Mod(l, r), true
	case OpPow:
		return math.Pow(l, r), true
	}
	var truth bool
	switch op {
	case OpEql:
		truth = l == r
	case OpNeq:
		truth = l != r
	case OpGtr:
		truth = l > r
	case OpLss:
		truth = l < r
	case OpGte:
		truth = l >= r
	case OpLte:
		truth = l <= r
	}
	if returnBool {
		if truth {
			return 1, true
		}
		return 0, true
	}
	return l, truth
}

// vectorScalarOp applies op between each vector sample and a scalar.
// swapped indicates the scalar was the left operand.
func vectorScalarOp(al *alloc, n *BinaryExpr, vec Vector, scalar float64, swapped bool, ts int64) Vector {
	out := al.vec(len(vec))
	for _, s := range vec {
		l, r := s.V, scalar
		if swapped {
			l, r = r, l
		}
		v, keep := binArith(n.Op, l, r, n.ReturnBool)
		if n.Op.isComparison() && !n.ReturnBool {
			if !keep {
				continue
			}
			v = s.V
		}
		out = append(out, VSample{Labels: al.dropName(s.Labels), T: ts, V: v})
	}
	return out
}

// matchKey computes the join identity of a label set under the matching
// clause.
func matchKey(ls tsdb.Labels, m *VectorMatching) string {
	base := ls.Without(tsdb.MetricNameLabel)
	if m == nil {
		return base.Key()
	}
	if m.On {
		return base.Keep(m.MatchingLabels...).Key()
	}
	return base.Without(m.MatchingLabels...).Key()
}

// evalVectorVector performs vector matching: one-to-one by default,
// many-to-one with group_left, one-to-many with group_right.
func evalVectorVector(al *alloc, n *BinaryExpr, l, r Vector, ts int64) (Value, error) {
	card := CardOneToOne
	if n.Matching != nil {
		card = n.Matching.Card
	}
	// Normalise group_right to group_left by swapping operands (and the
	// operator's argument order).
	swapped := false
	if card == CardOneToMany {
		l, r = r, l
		swapped = true
	}
	rightBy := make(map[string]VSample, len(r))
	for _, s := range r {
		key := matchKey(s.Labels, n.Matching)
		if prev, dup := rightBy[key]; dup {
			side := "right"
			if swapped {
				side = "left"
			}
			return nil, fmt.Errorf("promql: many-to-many matching: %s side has duplicate match group (%s and %s)", side, prev.Labels, s.Labels)
		}
		rightBy[key] = s
	}
	seenLeft := make(map[string]bool, len(l))
	out := al.vec(len(l))
	for _, s := range l {
		key := matchKey(s.Labels, n.Matching)
		rs, ok := rightBy[key]
		if !ok {
			continue
		}
		if card == CardOneToOne {
			if seenLeft[key] {
				return nil, fmt.Errorf("promql: many-to-one matching requires group_left (duplicate left group %s)", s.Labels)
			}
			seenLeft[key] = true
		}
		lv, rv := s.V, rs.V
		if swapped {
			lv, rv = rv, lv
		}
		v, keep := binArith(n.Op, lv, rv, n.ReturnBool)
		if n.Op.isComparison() && !n.ReturnBool {
			if !keep {
				continue
			}
			v = lv
		}
		ls := al.dropName(s.Labels)
		if n.Matching != nil && n.Matching.On && card == CardOneToOne {
			ls = ls.Keep(n.Matching.MatchingLabels...)
		}
		// group modifiers copy the requested labels from the "one" side.
		if card != CardOneToOne && n.Matching != nil {
			for _, name := range n.Matching.Include {
				if v := rs.Labels.Get(name); v != "" {
					ls = ls.With(name, v)
				}
			}
		}
		out = append(out, VSample{Labels: ls, T: ts, V: v})
	}
	al.sortVec(out)
	return out, nil
}

// evalSetOp implements and / or / unless.
func evalSetOp(al *alloc, n *BinaryExpr, l, r Vector) Vector {
	keyOf := func(ls tsdb.Labels) string { return matchKey(ls, n.Matching) }
	switch n.Op {
	case OpAnd:
		rset := make(map[string]bool, len(r))
		for _, s := range r {
			rset[keyOf(s.Labels)] = true
		}
		out := al.vec(len(l))
		for _, s := range l {
			if rset[keyOf(s.Labels)] {
				out = append(out, s)
			}
		}
		return out
	case OpUnless:
		rset := make(map[string]bool, len(r))
		for _, s := range r {
			rset[keyOf(s.Labels)] = true
		}
		out := al.vec(len(l))
		for _, s := range l {
			if !rset[keyOf(s.Labels)] {
				out = append(out, s)
			}
		}
		return out
	case OpOr:
		lset := make(map[string]bool, len(l))
		out := append(al.vec(len(l)+len(r)), l...)
		for _, s := range l {
			lset[s.Labels.Key()] = true
		}
		for _, s := range r {
			if !lset[s.Labels.Key()] {
				out = append(out, s)
			}
		}
		al.sortVec(out)
		return out
	}
	return nil
}

// FormatValue renders a Value for human display (used by the CLI and the
// copilot's answer assembly).
func FormatValue(v Value) string {
	switch x := v.(type) {
	case Scalar:
		return formatFloat(x.V)
	case Vector:
		if len(x) == 0 {
			return "(empty result)"
		}
		var b strings.Builder
		for i, s := range x {
			if i > 0 {
				b.WriteByte('\n')
			}
			if len(s.Labels) == 0 {
				b.WriteString(formatFloat(s.V))
			} else {
				fmt.Fprintf(&b, "%s = %s", s.Labels, formatFloat(s.V))
			}
		}
		return b.String()
	case Matrix:
		return x.String()
	case String:
		return x.V
	}
	return ""
}
