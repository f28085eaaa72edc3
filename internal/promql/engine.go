package promql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

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
}

// DefaultEngineOptions mirrors Prometheus defaults.
func DefaultEngineOptions() EngineOptions {
	return EngineOptions{LookbackDelta: 5 * time.Minute, MaxSamples: 50_000_000, Timeout: 2 * time.Minute}
}

// Hooks observe engine behaviour without coupling evaluation to any
// metrics implementation (package obs supplies the histograms).
type Hooks struct {
	// OnRangeEval receives the select-once statistics of each range query.
	OnRangeEval func(RangeStats)
}

// RangeStats summarises select-once evaluation for one range query.
type RangeStats struct {
	// SelectorHits counts selector evaluations served from the per-query
	// series cache (every step after the first, for each selector).
	SelectorHits int
	// SelectorMisses counts selector fetches that went to storage (one per
	// distinct selector node).
	SelectorMisses int
	// PeakIntermediateBytes is the high-water mark of the query's pooled
	// intermediate memory: one step's containers, since its one arena
	// resets after every step.
	PeakIntermediateBytes int64
}

// Engine evaluates parsed expressions against a tsdb.Storage. It is safe
// for concurrent use.
type Engine struct {
	db    tsdb.Storage
	opts  EngineOptions
	hooks Hooks

	// noArena runs range queries on the nil arena, the plain-heap path an
	// instant query's part always takes. In-package tests set it to check
	// that results never depend on recycling; nothing else does.
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
	return &Engine{db: db, opts: opts, plans: make(map[string]*compiledPlan)}
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
	cp, err = compile(expr, e.opts)
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
	cp, _, err := e.planFor(expr)
	if err != nil {
		return "", err
	}
	return cp.tree(), nil
}

// SetHooks installs observation hooks. Call before the engine serves
// concurrent queries.
func (e *Engine) SetHooks(h Hooks) { e.hooks = h }

// DB returns the engine's backing store.
func (e *Engine) DB() tsdb.Storage { return e.db }

// maxRangeSteps bounds the steps of one range query (Prometheus's limit of
// 11,000 points per series).
const maxRangeSteps = 11000

// ErrTooManySamples is returned when a query exceeds MaxSamples.
var ErrTooManySamples = errors.New("promql: query touches too many samples")

// Eval evaluates expr at the instant ts.
func (e *Engine) Eval(ctx context.Context, expr Expr, ts time.Time) (Value, error) {
	if e.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.opts.Timeout)
		defer cancel()
	}
	return e.execInstant(ctx, expr, ts)
}

// QueryRangeExpr evaluates expr at every step in [start, end], producing
// a matrix (used by dashboard panels). Storage selection runs once per
// selector for the whole range: every step after the first advances
// per-series cursors over the fetched samples instead of re-running
// Select/SelectRange.
func (e *Engine) QueryRangeExpr(ctx context.Context, expr Expr, start, end time.Time, step time.Duration) (Matrix, error) {
	if step <= 0 {
		return nil, fmt.Errorf("promql: non-positive step %v", step)
	}
	if end.Before(start) {
		return nil, fmt.Errorf("promql: range end precedes start")
	}
	// Refused before the plan and the step slice: MaxSamples is a per-step
	// budget, so nothing else bounds what a tiny step allocates.
	if n := int64(end.Sub(start)/step) + 1; n > maxRangeSteps {
		return nil, fmt.Errorf("promql: range of %d steps exceeds the maximum of %d; use a larger step", n, maxRangeSteps)
	}
	// The engine timeout spans the whole range evaluation.
	if e.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.opts.Timeout)
		defer cancel()
	}
	return e.execRange(ctx, expr, start, end, step)
}

// dropName removes __name__, as Prometheus does for any operation that
// changes the meaning of a series' values. Label sets are immutable, so
// one without a name is returned as is.
func dropName(ls tsdb.Labels) tsdb.Labels {
	if ls.Get(tsdb.MetricNameLabel) == "" {
		return ls
	}
	return ls.Without(tsdb.MetricNameLabel)
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
		out = append(out, VSample{Labels: dropName(s.Labels), T: ts, V: v})
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
		ls := dropName(s.Labels)
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
	out.Sort()
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
		out.Sort()
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
