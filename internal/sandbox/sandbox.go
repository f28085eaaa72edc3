// Package sandbox executes model-generated PromQL in a confined
// environment (§3.3: "the generated code is executed on the database in a
// sandboxed environment"). The guard rails are the ones that matter for
// untrusted generated code against a shared store: a hard wall-clock
// timeout, a touched-samples budget, a series cardinality cap on results,
// and rejection of unselective queries that would scan the whole database.
package sandbox

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dio/internal/obs"
	"dio/internal/promql"
	"dio/internal/tsdb"
)

// Limits bounds one query execution.
type Limits struct {
	// Timeout caps wall-clock evaluation time.
	Timeout time.Duration
	// MaxSamples caps how many stored samples one query may touch.
	MaxSamples int
	// MaxResultSeries caps the result cardinality.
	MaxResultSeries int
	// MaxRange caps the widest matrix selector window.
	MaxRange time.Duration
	// RequireSelective rejects selectors with no metric name (which scan
	// every series in the store).
	RequireSelective bool
}

// DefaultLimits returns production-shaped limits.
func DefaultLimits() Limits {
	return Limits{
		Timeout:          10 * time.Second,
		MaxSamples:       5_000_000,
		MaxResultSeries:  1_000,
		MaxRange:         24 * time.Hour,
		RequireSelective: true,
	}
}

// Executor runs queries under Limits and records each one once. It is
// safe for concurrent use.
type Executor struct {
	engine  *promql.Engine
	limits  Limits
	audit   *AuditLog
	metrics *executorMetrics
	qlog    *obs.QueryLog
	tracker *obs.ActiveQueryTracker
}

// executorMetrics holds the obs instruments attached by Instrument.
type executorMetrics struct {
	queries  *obs.CounterVec // dio_sandbox_queries_total{outcome}
	duration *obs.Histogram  // dio_sandbox_exec_duration_seconds
	timeouts *obs.Counter    // dio_sandbox_timeouts_total
	samples  *obs.Histogram  // dio_promql_samples_loaded
}

// New returns an executor over db that audits every query it is given.
func New(db tsdb.Storage, limits Limits) *Executor {
	opts := promql.DefaultEngineOptions()
	if limits.MaxSamples > 0 {
		opts.MaxSamples = limits.MaxSamples
	}
	if limits.Timeout > 0 {
		opts.Timeout = limits.Timeout
	}
	return &Executor{engine: promql.NewEngine(db, opts), limits: limits, audit: newAuditLog(4096)}
}

// Instrument registers the executor's self-metrics on reg and wires the
// engine's select-once cache counters. Call once, before serving.
func (e *Executor) Instrument(reg *obs.Registry) {
	e.metrics = &executorMetrics{
		queries: reg.CounterVec("dio_sandbox_queries_total",
			"Sandboxed query submissions by outcome (executed, rejected, failed).", "", "outcome"),
		duration: reg.Histogram("dio_sandbox_exec_duration_seconds",
			"Wall-clock latency of sandboxed query execution.", "seconds", obs.DefBuckets()),
		timeouts: reg.Counter("dio_sandbox_timeouts_total",
			"Sandboxed queries that hit the wall-clock timeout.", ""),
		samples: reg.Histogram("dio_promql_samples_loaded",
			"Stored samples touched per query evaluation.", "", obs.ExponentialBuckets(10, 10, 7)),
	}
	selHits := reg.Counter("dio_promql_selector_cache_hits_total",
		"Range-query selector evaluations served from the select-once cache.", "")
	selMisses := reg.Counter("dio_promql_selector_cache_misses_total",
		"Range-query selector fetches that went to storage.", "")
	e.engine.SetHooks(promql.Hooks{OnRangeEval: func(s promql.RangeStats) {
		selHits.Add(float64(s.SelectorHits))
		selMisses.Add(float64(s.SelectorMisses))
	}})
}

// ObserveQueries attaches the slow-query log and the active-query
// tracker: every query this executor evaluates — sandboxed asks,
// dashboard panels, direct API queries — holds a tracker slot while it
// runs and lands in the slow-query log when it finishes. Either argument
// may be nil. Call before serving.
func (e *Executor) ObserveQueries(qlog *obs.QueryLog, tracker *obs.ActiveQueryTracker) {
	e.qlog, e.tracker = qlog, tracker
}

// Engine exposes the underlying engine (for EXPLAIN and the backing store).
func (e *Executor) Engine() *promql.Engine { return e.engine }

// Audit returns the executor's audit log.
func (e *Executor) Audit() *AuditLog { return e.audit }

// ErrRejected marks queries refused by static vetting before execution.
var ErrRejected = errors.New("sandbox: query rejected")

// Vet statically checks a parsed query against the limits.
func (e *Executor) Vet(expr promql.Expr) error {
	var err error
	promql.Walk(expr, func(n promql.Expr) {
		if err != nil {
			return
		}
		switch x := n.(type) {
		case *promql.VectorSelector:
			if e.limits.RequireSelective && x.Name == "" {
				named := false
				for _, m := range x.Matchers {
					if m.Name == tsdb.MetricNameLabel {
						named = true
					}
				}
				if !named {
					err = fmt.Errorf("%w: selector without a metric name scans the entire store", ErrRejected)
				}
			}
		case *promql.MatrixSelector:
			if e.limits.MaxRange > 0 && x.Range > e.limits.MaxRange {
				err = fmt.Errorf("%w: range %s exceeds the maximum %s", ErrRejected,
					promql.FormatDuration(x.Range), promql.FormatDuration(e.limits.MaxRange))
			}
		}
	})
	return err
}

// outcomeOf classifies a run result for the audit log and the metrics.
func outcomeOf(err error) Outcome {
	switch {
	case err == nil:
		return OutcomeExecuted
	case errors.Is(err, ErrRejected):
		return OutcomeRejected
	default:
		return OutcomeFailed
	}
}

// Execute parses, vets and evaluates query at ts.
func (e *Executor) Execute(ctx context.Context, query string, ts time.Time) (promql.Value, error) {
	return e.run(ctx, query, "instant", func(ctx context.Context, expr promql.Expr) (promql.Value, error) {
		return e.engine.Eval(ctx, expr, ts)
	})
}

// ExecuteRange parses, vets and evaluates a range query (dashboard panels,
// /api/v1/query_range).
func (e *Executor) ExecuteRange(ctx context.Context, query string, start, end time.Time, step time.Duration) (promql.Matrix, error) {
	v, err := e.run(ctx, query, "range", func(ctx context.Context, expr promql.Expr) (promql.Value, error) {
		return e.engine.QueryRangeExpr(ctx, expr, start, end, step)
	})
	m, _ := v.(promql.Matrix)
	return m, err
}

// run is the one path every query takes. It parses and vets query; a
// query that passes holds an active-query slot while eval runs it under a
// stats capture, and its result is held to MaxResultSeries. run then
// writes the query's one record: the audit entry, the slow-query log
// entry, the self-metrics and the span annotation. A query that parse or
// vet refuses takes no slot and no slow-log entry, but is audited and
// metered like any other. The engine's timeout (New set it from
// Limits.Timeout) bounds eval.
func (e *Executor) run(ctx context.Context, query, kind string, eval func(context.Context, promql.Expr) (promql.Value, error)) (promql.Value, error) {
	start := time.Now()
	expr, err := promql.Parse(query)
	if err == nil {
		err = e.Vet(expr)
	}
	if err != nil {
		e.record(ctx, query, nil, err, time.Since(start))
		return nil, err
	}

	canonical, traceID := expr.String(), obs.SpanFrom(ctx).TraceID()
	if e.tracker != nil {
		slot := e.tracker.Insert(canonical, kind, traceID)
		defer e.tracker.Done(slot)
	}
	ctx, capture := promql.WithQueryStats(ctx)
	v, err := eval(ctx, expr)
	if err == nil && e.limits.MaxResultSeries > 0 {
		if n := seriesIn(v); n > e.limits.MaxResultSeries {
			v, err = nil, fmt.Errorf("%w: result has %d series (limit %d)", ErrRejected, n, e.limits.MaxResultSeries)
		}
	}
	d := time.Since(start)
	qs := capture.Stats()
	e.record(ctx, query, qs, err, d)
	if e.qlog != nil {
		ent := obs.QueryLogEntry{Query: canonical, Kind: kind, TraceID: traceID, Start: start, Duration: d}
		if err != nil {
			ent.Err = err.Error()
		} else if qs != nil {
			ent.Samples, ent.Steps, ent.Analyzed = qs.Samples, qs.Steps, qs
		}
		e.qlog.Observe(ent)
	}
	return v, err
}

// record writes one query's audit entry and self-metrics, and its verdict
// on the request span ctx carries (none on untraced paths). qs is the
// evaluation's profile, nil when the query never compiled.
func (e *Executor) record(ctx context.Context, query string, qs *promql.QueryStats, err error, d time.Duration) {
	outcome := outcomeOf(err)
	plan := ""
	if qs != nil {
		plan = qs.Plan
	}
	e.audit.record(query, plan, outcome, err, d)
	if m := e.metrics; m != nil {
		m.queries.With(string(outcome)).Inc()
		m.duration.Observe(d.Seconds())
		if errors.Is(err, context.DeadlineExceeded) {
			m.timeouts.Inc()
		}
		if qs != nil {
			m.samples.Observe(float64(qs.Samples))
		}
	}
	if sp := obs.SpanFrom(ctx); sp.Recording() {
		sp.SetAttr("promql.query", query)
		sp.SetAttr("sandbox.outcome", string(outcome))
		// A failed or rejected query errors the span so the trace earns
		// preferential (notable) retention in the store.
		sp.SetError(err)
	}
}

// seriesIn counts a result's series: a vector's samples or a matrix's
// series, zero for scalars and strings.
func seriesIn(v promql.Value) int {
	switch x := v.(type) {
	case promql.Vector:
		return len(x)
	case promql.Matrix:
		return len(x)
	}
	return 0
}
