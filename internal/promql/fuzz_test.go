package promql

import (
	"context"
	"errors"
	"testing"
	"time"

	"dio/internal/tsdb"
)

// fuzzTooDeep rejects inputs whose evaluation cost is unbounded by
// construction — subqueries with pathological step counts — before they
// reach either engine. Everything else must parse → plan → evaluate
// without panicking, and the planner must agree with the oracle
// tree-walker on both success/failure and rendered results.
func fuzzTooDeep(e Expr) bool {
	deep := false
	var walk func(Expr)
	walk = func(e Expr) {
		if e == nil || deep {
			return
		}
		switch n := e.(type) {
		case *SubqueryExpr:
			if n.Step > 0 && n.Range/n.Step > 5000 {
				deep = true
				return
			}
			walk(n.Expr)
		case *ParenExpr:
			walk(n.Expr)
		case *UnaryExpr:
			walk(n.Expr)
		case *MatrixSelector:
			walk(n.VectorSelector)
		case *Call:
			for _, a := range n.Args {
				walk(a)
			}
		case *AggregateExpr:
			walk(n.Expr)
			walk(n.Param)
		case *BinaryExpr:
			walk(n.LHS)
			walk(n.RHS)
		}
	}
	walk(e)
	return deep
}

// fuzzTimeout reports whether an error is a deadline or cancellation —
// timing-dependent outcomes the differential check must not compare.
func fuzzTimeout(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// FuzzParsePlanEval: for arbitrary input, parse → plan → evaluate never
// panics, and on valid inputs the plan-based executor and the oracle
// tree-walker agree byte-for-byte (instant and range). Seeded with the
// golden range corpus. CI runs a 30s -fuzz smoke on top of the checked-in
// corpus replay that `go test` always performs.
func FuzzParsePlanEval(f *testing.F) {
	for _, q := range rangeCorpus {
		f.Add(q)
	}
	f.Add("label_replace(smf_pdu_session_active, (\"dst\"), \"$1\", \"instance\", \"(.*)\")")
	f.Add("rate(((amfcc_n1_auth_request[5m])))")
	f.Add("-(1 + 2) * time()")
	f.Add("max_over_time(rate(amfcc_n1_auth_request[5m])[1h:1s])")
	// Distributed-aggregation seeds: shapes whose merge order (avg exact
	// fold, topk ties, count regrouping) is where sharding bugs would live.
	f.Add("avg by (instance) (rate(amfcc_n1_auth_request[5m]))")
	f.Add("topk(2, smf_pdu_session_active)")
	f.Add("count by (nf) (amfcc_n1_auth_request)")
	f.Add("avg(smf_pdu_session_active) + topk(1, smf_pdu_session_active)")

	db, end := testDB(f)
	base := DefaultEngineOptions()
	base.MaxSamples = 1_000_000
	base.Timeout = 5 * time.Second
	planner := NewEngine(db, base)
	// The 4-shard engine runs the same data through fan-out + distributed
	// partial aggregation; it must agree with the single-shard planner.
	shardBase := db
	if sh, ok := db.(*tsdb.ShardedDB); ok {
		shardBase = sh.Gather()
	}
	sharded := NewEngine(tsdb.Reshard(shardBase, 4), base)

	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 512 {
			return
		}
		expr, err := Parse(input)
		if err != nil {
			return // invalid input; not panicking is the property
		}
		if fuzzTooDeep(expr) {
			return
		}
		ctx := context.Background()

		pv, perr := planner.Query(ctx, input, end)
		lv, lerr := oracleQuery(ctx, planner, input, end)
		if fuzzTimeout(perr) || fuzzTimeout(lerr) {
			return
		}
		if (perr == nil) != (lerr == nil) {
			t.Fatalf("instant %q: error mismatch: planner=%v oracle=%v", input, perr, lerr)
		}
		if perr == nil {
			if got, want := FormatValue(pv), FormatValue(lv); got != want {
				t.Fatalf("instant %q: results differ\nplanner:\n%s\noracle:\n%s", input, got, want)
			}
		}
		sv, serr := sharded.Query(ctx, input, end)
		if fuzzTimeout(serr) {
			return
		}
		if (serr == nil) != (perr == nil) {
			t.Fatalf("instant %q: error mismatch: sharded=%v planner=%v", input, serr, perr)
		}
		if serr == nil {
			if got, want := FormatValue(sv), FormatValue(pv); got != want {
				t.Fatalf("instant %q: sharded result differs\nsharded:\n%s\nplanner:\n%s", input, got, want)
			}
		}

		start := end.Add(-10 * time.Minute)
		pm, perr := planner.QueryRange(ctx, input, start, end, time.Minute)
		lm, lerr := oracleQueryRange(ctx, planner, input, start, end, time.Minute)
		if fuzzTimeout(perr) || fuzzTimeout(lerr) {
			return
		}
		if (perr == nil) != (lerr == nil) {
			t.Fatalf("range %q: error mismatch: planner=%v oracle=%v", input, perr, lerr)
		}
		if perr == nil {
			if got, want := pm.String(), lm.String(); got != want {
				t.Fatalf("range %q: matrices differ\nplanner:\n%s\noracle:\n%s", input, got, want)
			}
		}
		sm, serr := sharded.QueryRange(ctx, input, start, end, time.Minute)
		if fuzzTimeout(serr) {
			return
		}
		if (serr == nil) != (perr == nil) {
			t.Fatalf("range %q: error mismatch: sharded=%v planner=%v", input, serr, perr)
		}
		if serr == nil {
			if got, want := sm.String(), pm.String(); got != want {
				t.Fatalf("range %q: sharded matrix differs\nsharded:\n%s\nplanner:\n%s", input, got, want)
			}
		}
	})
}
