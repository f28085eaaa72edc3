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
	"sync/atomic"
	"time"

	"dio/internal/obs"
	"dio/internal/promql"
	"dio/internal/tenant"
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
	// MaxConcurrent caps queries evaluating at once (the engine gate);
	// zero uses the engine default.
	MaxConcurrent int
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

// Stats accumulates executor counters.
type Stats struct {
	Executed int
	Rejected int
	Failed   int
}

// Executor runs queries under Limits. It is safe for concurrent use.
type Executor struct {
	engine   *promql.Engine
	limits   Limits
	executed atomic.Int64
	rejected atomic.Int64
	failed   atomic.Int64
	audit    *AuditLog
	metrics  *executorMetrics
	// hooks accumulates the engine hooks installed so far: Instrument and
	// ObserveQueries each contribute their slice and reapply the merged
	// set, so the two can be wired in either order.
	hooks promql.Hooks
}

// executorMetrics holds the obs instruments attached by Instrument.
type executorMetrics struct {
	queries  *obs.CounterVec // dio_sandbox_queries_total{outcome}
	duration *obs.Histogram  // dio_sandbox_exec_duration_seconds
	timeouts *obs.Counter    // dio_sandbox_timeouts_total
}

// New returns an executor over db.
func New(db tsdb.Storage, limits Limits) *Executor {
	opts := promql.DefaultEngineOptions()
	if limits.MaxSamples > 0 {
		opts.MaxSamples = limits.MaxSamples
	}
	if limits.Timeout > 0 {
		opts.Timeout = limits.Timeout
	}
	if limits.MaxConcurrent > 0 {
		opts.MaxConcurrent = limits.MaxConcurrent
	}
	return &Executor{engine: promql.NewEngine(db, opts), limits: limits}
}

// Instrument registers the executor's self-metrics on reg and wires the
// engine hooks (queue wait, samples loaded). Call once, before serving.
func (e *Executor) Instrument(reg *obs.Registry) {
	e.metrics = &executorMetrics{
		queries: reg.CounterVec("dio_sandbox_queries_total",
			"Sandboxed query submissions by outcome (executed, rejected, failed).", "", "outcome"),
		duration: reg.Histogram("dio_sandbox_exec_duration_seconds",
			"Wall-clock latency of sandboxed query execution.", "seconds", obs.DefBuckets()),
		timeouts: reg.Counter("dio_sandbox_timeouts_total",
			"Sandboxed queries that hit the wall-clock timeout.", ""),
	}
	queueWait := reg.Histogram("dio_promql_queue_wait_seconds",
		"Time queries spent waiting for an engine concurrency slot.", "seconds", obs.DefBuckets())
	samples := reg.Histogram("dio_promql_samples_loaded",
		"Stored samples touched per query evaluation.", "", obs.ExponentialBuckets(10, 10, 7))
	selHits := reg.Counter("dio_promql_selector_cache_hits_total",
		"Range-query selector evaluations served from the select-once cache.", "")
	selMisses := reg.Counter("dio_promql_selector_cache_misses_total",
		"Range-query selector fetches that went to storage.", "")
	resets := reg.Counter("dio_promql_cursor_resets_total",
		"Series cursor re-seeks caused by non-monotone evaluation timestamps.", "")
	fanout := reg.Histogram("dio_shard_fanout_seconds",
		"Latency of the per-query sharded storage fan-out (per-shard select + merge).", "seconds",
		obs.ExponentialBuckets(0.0001, 4, 8))
	partials := reg.Counter("dio_shard_partial_aggs_total",
		"Aggregations evaluated as per-shard partials and merged centrally.", "")
	fallbacks := reg.Counter("dio_shard_fallbacks_total",
		"Distributed aggregations demoted to gather-then-evaluate by a runtime order guard.", "")
	e.hooks.QueueWait = func(d time.Duration) { queueWait.Observe(d.Seconds()) }
	e.hooks.OnSamples = func(n int) { samples.Observe(float64(n)) }
	e.hooks.OnFanout = func(d time.Duration) { fanout.Observe(d.Seconds()) }
	e.hooks.OnRangeEval = func(s promql.RangeStats) {
		selHits.Add(float64(s.SelectorHits))
		selMisses.Add(float64(s.SelectorMisses))
		resets.Add(float64(s.CursorResets))
		partials.Add(float64(s.DistPartials))
		fallbacks.Add(float64(s.DistFallbacks))
	}
	e.engine.SetHooks(e.hooks)
}

// ObserveQueries wires the query-level observability hooks: every query
// through this executor's engine — sandboxed asks, dashboard panels,
// direct API queries — registers with the active-query tracker while it
// runs and lands in the slow-query log when it finishes. Either argument
// may be nil. Call alongside Instrument, before serving.
func (e *Executor) ObserveQueries(qlog *obs.QueryLog, tracker *obs.ActiveQueryTracker) {
	if tracker != nil {
		e.hooks.OnQueryStart = func(query, kind, traceID string) func() {
			slot := tracker.Insert(query, kind, traceID)
			return func() { tracker.Done(slot) }
		}
	}
	if qlog != nil {
		e.hooks.OnQueryDone = qlog.Observe
	}
	e.engine.SetHooks(e.hooks)
}

// observe records one run on the attached instruments (no-op when the
// executor is uninstrumented).
func (e *Executor) observe(outcome Outcome, err error, d time.Duration) {
	if e.metrics == nil {
		return
	}
	e.metrics.queries.With(string(outcome)).Inc()
	e.metrics.duration.Observe(d.Seconds())
	if errors.Is(err, context.DeadlineExceeded) {
		e.metrics.timeouts.Inc()
	}
}

// Engine exposes the underlying engine (for dashboards' range queries).
func (e *Executor) Engine() *promql.Engine { return e.engine }

// SetAudit attaches an audit log; every subsequent query submission is
// recorded (§5.4 safety).
func (e *Executor) SetAudit(a *AuditLog) { e.audit = a }

// Audit returns the attached audit log (nil when auditing is off).
func (e *Executor) Audit() *AuditLog { return e.audit }

// Stats returns a snapshot of the executor counters.
func (e *Executor) Stats() Stats {
	return Stats{
		Executed: int(e.executed.Load()),
		Rejected: int(e.rejected.Load()),
		Failed:   int(e.failed.Load()),
	}
}

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

// annotate records the query verdict on the request trace span carried by
// ctx (nil-safe: no-op on untraced paths).
func annotate(ctx context.Context, query string, outcome Outcome, err error) {
	sp := obs.SpanFrom(ctx)
	if !sp.Recording() {
		return
	}
	sp.SetAttr("promql.query", query)
	sp.SetAttr("sandbox.outcome", string(outcome))
	// A failed or rejected query errors the span so the trace earns
	// preferential (notable) retention in the store.
	sp.SetError(err)
}

// Execute parses, vets and evaluates query at ts.
func (e *Executor) Execute(ctx context.Context, query string, ts time.Time) (promql.Value, error) {
	started := time.Now()
	v, plan, err := e.execute(ctx, query, ts)
	d := time.Since(started)
	outcome := outcomeOf(err)
	e.audit.record(query, tenant.From(ctx), plan, outcome, err, d)
	e.observe(outcome, err, d)
	annotate(ctx, query, outcome, err)
	return v, err
}

// explain returns the compact execution plan for an already vetted
// expression, empty when it does not compile (Eval then reports why).
func (e *Executor) explain(expr promql.Expr) string {
	plan, err := e.engine.ExplainCompact(expr)
	if err != nil {
		return ""
	}
	return plan
}

func (e *Executor) execute(ctx context.Context, query string, ts time.Time) (promql.Value, string, error) {
	expr, err := promql.Parse(query)
	if err != nil {
		e.failed.Add(1)
		return nil, "", err
	}
	if err := e.Vet(expr); err != nil {
		e.rejected.Add(1)
		return nil, "", err
	}
	plan := e.explain(expr)
	if e.limits.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.limits.Timeout)
		defer cancel()
	}
	v, err := e.engine.Eval(ctx, expr, ts)
	if err != nil {
		e.failed.Add(1)
		return nil, plan, err
	}
	if vec, ok := v.(promql.Vector); ok && e.limits.MaxResultSeries > 0 && len(vec) > e.limits.MaxResultSeries {
		e.rejected.Add(1)
		return nil, plan, fmt.Errorf("%w: result has %d series (limit %d)", ErrRejected, len(vec), e.limits.MaxResultSeries)
	}
	e.executed.Add(1)
	return v, plan, nil
}

// ExecuteRange vets and evaluates a range query (dashboard panels).
func (e *Executor) ExecuteRange(ctx context.Context, query string, start, end time.Time, step time.Duration) (promql.Matrix, error) {
	started := time.Now()
	m, err := e.executeRange(ctx, query, start, end, step)
	outcome := outcomeOf(err)
	e.observe(outcome, err, time.Since(started))
	annotate(ctx, query, outcome, err)
	return m, err
}

func (e *Executor) executeRange(ctx context.Context, query string, start, end time.Time, step time.Duration) (promql.Matrix, error) {
	expr, err := promql.Parse(query)
	if err != nil {
		e.failed.Add(1)
		return nil, err
	}
	if err := e.Vet(expr); err != nil {
		e.rejected.Add(1)
		return nil, err
	}
	m, err := e.engine.QueryRangeExpr(ctx, expr, start, end, step)
	if err != nil {
		e.failed.Add(1)
		return nil, err
	}
	e.executed.Add(1)
	return m, nil
}
