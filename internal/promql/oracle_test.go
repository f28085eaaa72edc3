package promql

// oracle_test.go — the test-only reference evaluator. A cache-free
// tree-walker that re-runs full storage selection (tsdb.Select /
// SelectRange) at every step and shares only the value kernels
// (kernels.go) with the plan-based executor: no plan, no optimizer
// passes, no cursors, no arenas, no partitions. The differential tests
// and the conformance corpus compare the executor against it; nothing
// outside this package's tests can reach it.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"dio/internal/tsdb"
)

// oracleQuery parses and evaluates input at ts on the oracle, under e's
// options (lookback, MaxSamples, Timeout) and storage.
func oracleQuery(ctx context.Context, e *Engine, input string, ts time.Time) (Value, error) {
	expr, err := Parse(input)
	if err != nil {
		return nil, err
	}
	ctx, cancel := oracleTimeout(ctx, e)
	defer cancel()
	ev := &evaluator{ctx: ctx, eng: e, ts: ts.UnixMilli()}
	return ev.eval(expr)
}

// oracleTimeout applies e's engine-level Timeout to one oracle query.
func oracleTimeout(ctx context.Context, e *Engine) (context.Context, context.CancelFunc) {
	if e.opts.Timeout > 0 {
		return context.WithTimeout(ctx, e.opts.Timeout)
	}
	return ctx, func() {}
}

// oracleQueryRange evaluates input at every step in [start, end] on the
// oracle, one independent instant evaluation per step with a fresh
// MaxSamples budget each — the semantics the executor's batched,
// partitioned range path must reproduce byte for byte.
func oracleQueryRange(ctx context.Context, e *Engine, input string, start, end time.Time, step time.Duration) (Matrix, error) {
	expr, err := Parse(input)
	if err != nil {
		return nil, err
	}
	ctx, cancel := oracleTimeout(ctx, e)
	defer cancel()
	acc := make(map[string]*MSeries)
	var order []string
	for t := start; !t.After(end); t = t.Add(step) {
		ev := &evaluator{ctx: ctx, eng: e, ts: t.UnixMilli()}
		v, err := ev.eval(expr)
		if err != nil {
			return nil, err
		}
		var vec Vector
		switch x := v.(type) {
		case Vector:
			vec = x
		case Scalar:
			vec = Vector{{Labels: nil, T: x.T, V: x.V}}
		default:
			return nil, fmt.Errorf("promql: range query requires a vector or scalar expression")
		}
		for _, s := range vec {
			key := s.Labels.Key()
			ms, ok := acc[key]
			if !ok {
				ms = &MSeries{Labels: s.Labels}
				acc[key] = ms
				order = append(order, key)
			}
			ms.Samples = append(ms.Samples, tsdb.Sample{T: t.UnixMilli(), V: s.V})
		}
	}
	sort.Strings(order)
	out := make(Matrix, 0, len(order))
	for _, k := range order {
		out = append(out, *acc[k])
	}
	return out, nil
}

// evaluator carries per-query state.
type evaluator struct {
	ctx     context.Context
	eng     *Engine
	ts      int64 // evaluation timestamp (ms)
	samples int
}

func (ev *evaluator) account(n int) error {
	ev.samples += n
	if ev.eng.opts.MaxSamples > 0 && ev.samples > ev.eng.opts.MaxSamples {
		return ErrTooManySamples
	}
	return ev.ctx.Err()
}

func (ev *evaluator) eval(expr Expr) (Value, error) {
	if err := ev.ctx.Err(); err != nil {
		return nil, err
	}
	switch n := expr.(type) {
	case *NumberLiteral:
		return Scalar{T: ev.ts, V: n.Val}, nil
	case *StringLiteral:
		return String{T: ev.ts, V: n.Val}, nil
	case *ParenExpr:
		return ev.eval(n.Expr)
	case *UnaryExpr:
		return ev.evalUnary(n)
	case *VectorSelector:
		return ev.evalVectorSelector(n)
	case *MatrixSelector:
		return ev.evalMatrixSelector(n)
	case *SubqueryExpr:
		m, _, _, err := ev.evalSubquery(n)
		return m, err
	case *Call:
		return ev.evalCall(n)
	case *AggregateExpr:
		return ev.evalAggregate(n)
	case *BinaryExpr:
		return ev.evalBinary(n)
	}
	return nil, fmt.Errorf("promql: cannot evaluate %T", expr)
}

func (ev *evaluator) evalUnary(n *UnaryExpr) (Value, error) {
	v, err := ev.eval(n.Expr)
	if err != nil {
		return nil, err
	}
	switch x := v.(type) {
	case Scalar:
		return Scalar{T: x.T, V: -x.V}, nil
	case Vector:
		out := make(Vector, len(x))
		for i, s := range x {
			out[i] = VSample{Labels: s.Labels.Without(tsdb.MetricNameLabel), T: s.T, V: -s.V}
		}
		return out, nil
	}
	return nil, fmt.Errorf("promql: unary minus on %s", v.ValueType())
}

func (ev *evaluator) evalVectorSelector(n *VectorSelector) (Value, error) {
	ts := ev.ts - n.Offset.Milliseconds()
	lookback := ev.eng.opts.LookbackDelta.Milliseconds()
	points := ev.eng.db.Select(n.Matchers, ts, lookback)
	if err := ev.account(len(points)); err != nil {
		return nil, err
	}
	out := make(Vector, 0, len(points))
	for _, p := range points {
		out = append(out, VSample{Labels: p.Labels, T: ev.ts, V: p.Sample.V})
	}
	return out, nil
}

// evalMatrix returns the window series for a matrix selector.
func (ev *evaluator) evalMatrix(n *MatrixSelector) (Matrix, int64, int64, error) {
	end := ev.ts - n.VectorSelector.Offset.Milliseconds()
	start := end - n.Range.Milliseconds()
	ranges := ev.eng.db.SelectRange(n.VectorSelector.Matchers, start, end)
	total := 0
	out := make(Matrix, 0, len(ranges))
	for _, r := range ranges {
		total += len(r.Samples)
		out = append(out, MSeries{Labels: r.Labels, Samples: r.Samples})
	}
	if err := ev.account(total); err != nil {
		return nil, 0, 0, err
	}
	return out, start, end, nil
}

func (ev *evaluator) evalMatrixSelector(n *MatrixSelector) (Value, error) {
	m, _, _, err := ev.evalMatrix(n)
	return m, err
}

func (ev *evaluator) evalCall(n *Call) (Value, error) {
	name := n.Func.Name
	switch name {
	case "time":
		return Scalar{T: ev.ts, V: float64(ev.ts) / 1000}, nil
	case "vector":
		s, err := ev.evalScalar(n.Args[0])
		if err != nil {
			return nil, err
		}
		return Vector{{Labels: nil, T: ev.ts, V: s}}, nil
	case "scalar":
		v, err := ev.evalVector(n.Args[0])
		if err != nil {
			return nil, err
		}
		if len(v) != 1 {
			return Scalar{T: ev.ts, V: math.NaN()}, nil
		}
		return Scalar{T: ev.ts, V: v[0].V}, nil
	case "absent":
		v, err := ev.evalVector(n.Args[0])
		if err != nil {
			return nil, err
		}
		if len(v) > 0 {
			return Vector{}, nil
		}
		return Vector{{Labels: nil, T: ev.ts, V: 1}}, nil
	case "histogram_quantile":
		return ev.evalHistogramQuantile(n)
	case "label_replace":
		return ev.evalLabelReplace(n)
	}

	// Range-vector functions.
	if len(n.Args) >= 1 {
		if arg, ok := unwrapMatrixArg(n); ok {
			return ev.evalRangeFunc(n, arg)
		}
	}

	// Simple vector→vector math functions.
	return ev.evalVectorMath(n)
}

// unwrapMatrixArg returns the range-vector argument of a call (a matrix
// selector or a subquery), if the function takes one.
func unwrapMatrixArg(n *Call) (Expr, bool) {
	for _, a := range n.Args {
		if p, ok := a.(*ParenExpr); ok {
			a = p.Expr
		}
		switch a.(type) {
		case *MatrixSelector, *SubqueryExpr:
			return a, true
		}
	}
	return nil, false
}

// evalRangeArg evaluates a range-vector argument to its window series.
func (ev *evaluator) evalRangeArg(arg Expr) (Matrix, int64, int64, error) {
	switch x := arg.(type) {
	case *MatrixSelector:
		return ev.evalMatrix(x)
	case *SubqueryExpr:
		return ev.evalSubquery(x)
	}
	return nil, 0, 0, fmt.Errorf("promql: not a range-vector expression: %T", arg)
}

func (ev *evaluator) evalRangeFunc(n *Call, arg Expr) (Value, error) {
	matrix, start, end, err := ev.evalRangeArg(arg)
	if err != nil {
		return nil, err
	}
	// Scalar parameters (quantile_over_time's φ, predict_linear's horizon).
	var scalarParam float64
	for _, a := range n.Args {
		if a.Type() == ValueScalar {
			scalarParam, err = ev.evalScalar(a)
			if err != nil {
				return nil, err
			}
			break
		}
	}
	return applyRangeFunc(nil, n.Func.Name, matrix, start, end, ev.ts, scalarParam)
}

func (ev *evaluator) evalVectorMath(n *Call) (Value, error) {
	vec, err := ev.evalVector(n.Args[0])
	if err != nil {
		return nil, err
	}
	scalars := make([]float64, 0, 2)
	for _, a := range n.Args[1:] {
		s, err := ev.evalScalar(a)
		if err != nil {
			return nil, err
		}
		scalars = append(scalars, s)
	}
	return applyVectorMath(nil, n.Func.Name, vec, scalars), nil
}

// evalHistogramQuantile implements classic histogram quantiles over
// <metric>_bucket series with le labels.
func (ev *evaluator) evalHistogramQuantile(n *Call) (Value, error) {
	phi, err := ev.evalScalar(n.Args[0])
	if err != nil {
		return nil, err
	}
	vec, err := ev.evalVector(n.Args[1])
	if err != nil {
		return nil, err
	}
	return histogramQuantileVector(nil, phi, vec, ev.ts), nil
}

func (ev *evaluator) evalLabelReplace(n *Call) (Value, error) {
	vec, err := ev.evalVector(n.Args[0])
	if err != nil {
		return nil, err
	}
	var lit [4]string
	for i := range lit {
		s, err := stringLitArg(n.Args[i+1])
		if err != nil {
			return nil, err
		}
		lit[i] = s
	}
	dst, repl, src, pattern := lit[0], lit[1], lit[2], lit[3]
	re, err := compileLabelReplace(pattern)
	if err != nil {
		return nil, err
	}
	return labelReplaceVector(nil, vec, re, dst, repl, src), nil
}

// evalScalar evaluates an expression that must yield a scalar.
func (ev *evaluator) evalScalar(e Expr) (float64, error) {
	v, err := ev.eval(e)
	if err != nil {
		return 0, err
	}
	s, ok := v.(Scalar)
	if !ok {
		return 0, fmt.Errorf("promql: expected scalar, got %s", v.ValueType())
	}
	return s.V, nil
}

// evalVector evaluates an expression that must yield an instant vector.
func (ev *evaluator) evalVector(e Expr) (Vector, error) {
	v, err := ev.eval(e)
	if err != nil {
		return nil, err
	}
	vec, ok := v.(Vector)
	if !ok {
		return nil, fmt.Errorf("promql: expected instant vector, got %s", v.ValueType())
	}
	return vec, nil
}

// --- aggregation ---------------------------------------------------------

func (ev *evaluator) evalAggregate(n *AggregateExpr) (Value, error) {
	vec, err := ev.evalVector(n.Expr)
	if err != nil {
		return nil, err
	}
	var param float64
	var strParam string
	if n.Param != nil {
		switch p := n.Param.(type) {
		case *StringLiteral:
			strParam = p.Val
		default:
			param, err = ev.evalScalar(n.Param)
			if err != nil {
				return nil, err
			}
		}
	}

	return aggregateVector(nil, n, vec, param, strParam, ev.ts)
}

// --- binary operators ----------------------------------------------------

func (ev *evaluator) evalBinary(n *BinaryExpr) (Value, error) {
	lv, err := ev.eval(n.LHS)
	if err != nil {
		return nil, err
	}
	rv, err := ev.eval(n.RHS)
	if err != nil {
		return nil, err
	}
	return applyBinary(nil, n, lv, rv, ev.ts)
}

// evalSubquery evaluates the inner expression at every step in the
// window (start, end], grouping results into a matrix.
func (ev *evaluator) evalSubquery(sq *SubqueryExpr) (Matrix, int64, int64, error) {
	end := ev.ts - sq.Offset.Milliseconds()
	start := end - sq.Range.Milliseconds()
	stepMs := sq.Step.Milliseconds()
	if stepMs <= 0 {
		return nil, 0, 0, fmt.Errorf("promql: subquery step must be positive")
	}
	acc := make(map[string]*MSeries)
	var order []string
	// First evaluation point: the earliest step boundary inside the
	// window (left-open), aligned to the end.
	n := (end - start) / stepMs
	for i := n; i >= 0; i-- {
		t := end - i*stepMs
		if t <= start {
			continue
		}
		// The step evaluator inherits and extends the parent's sample
		// budget, so a subquery cannot amplify past MaxSamples.
		sub := &evaluator{ctx: ev.ctx, eng: ev.eng, ts: t, samples: ev.samples}
		v, err := sub.eval(sq.Expr)
		if err != nil {
			return nil, 0, 0, err
		}
		ev.samples = sub.samples
		var vec Vector
		switch x := v.(type) {
		case Vector:
			vec = x
		case Scalar:
			vec = Vector{{Labels: nil, T: x.T, V: x.V}}
		default:
			return nil, 0, 0, fmt.Errorf("promql: subquery inner expression must be a vector or scalar")
		}
		for _, s := range vec {
			key := s.Labels.Key()
			ms, ok := acc[key]
			if !ok {
				ms = &MSeries{Labels: s.Labels}
				acc[key] = ms
				order = append(order, key)
			}
			ms.Samples = append(ms.Samples, tsdb.Sample{T: t, V: s.V})
		}
	}
	out := make(Matrix, 0, len(order))
	for _, k := range order {
		out = append(out, *acc[k])
	}
	return out, start, end, nil
}
