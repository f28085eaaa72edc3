package promql

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
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

// fuzzSeeds are FuzzParsePlanEval's seeds beyond the golden range corpus;
// TestPlanGolden pins their plans too.
var fuzzSeeds = []string{
	"label_replace(smf_pdu_session_active, (\"dst\"), \"$1\", \"instance\", \"(.*)\")",
	"rate(((amfcc_n1_auth_request[5m])))",
	"-(1 + 2) * time()",
	"max_over_time(rate(amfcc_n1_auth_request[5m])[1h:1s])",
	// Aggregation seeds: shapes whose fold order (avg, topk ties, count
	// regrouping) a kernel change could move.
	"avg by (instance) (rate(amfcc_n1_auth_request[5m]))",
	"topk(2, smf_pdu_session_active)",
	"count by (nf) (amfcc_n1_auth_request)",
	"avg(smf_pdu_session_active) + topk(1, smf_pdu_session_active)",
	// TestWideEquivalence's shapes: aggregations over range functions and
	// selectors, by and without, and a selector over two names whose name
	// drop reorders the series.
	"sum without (instance) (rate(amfcc_n1_auth_request[5m]))",
	"topk by (nf) (1, rate(amfcc_n1_auth_request[5m]))",
	"bottomk(1, sum by (instance) (rate(amfcc_n1_auth_request[5m])))",
	`count_values by (nf) ("v", rate(amfcc_n1_auth_request[5m]))`,
	"quantile by (nf) (0.9, rate(amfcc_n1_auth_request[5m]))",
	"max by (nf) (sum by (nf, instance) (rate(amfcc_n1_auth_request[5m])))",
	`avg by (instance) (rate({__name__=~"amfcc_n1_auth_request|smf_pdu_session_active"}[5m]))`,
	`topk(1, rate({__name__=~"amfcc_n1_auth_request|smf_pdu_session_active"}[5m]))`,
	// Subqueries, as in TestWideEquivalence: an inner step no outer step
	// is a multiple of, nesting, offsets at both levels, and counters.
	"avg_over_time(sum by (instance) (smf_pdu_session_active)[4m:40s])",
	"max_over_time(avg_over_time(sum(amfcc_n1_auth_request)[1m:20s])[5m:1m])",
	"sum_over_time(sum(smf_pdu_session_active offset 1m)[3m:30s] offset 2m)",
	"max_over_time(rate(amfcc_n1_auth_request[2m])[5m:30s])",
	"min_over_time(increase(amfcc_n1_auth_request[3m])[6m:1m] offset 1m)",
}

// FuzzParsePlanEval: for arbitrary input, parse → plan → render →
// evaluate never panics, and on valid inputs the plan-based executor and the oracle
// tree-walker agree byte-for-byte (instant and range). Seeded with the
// golden range corpus. CI runs a 30s -fuzz smoke on top of the checked-in
// corpus replay that `go test` always performs.
func FuzzParsePlanEval(f *testing.F) {
	for _, q := range rangeCorpus {
		f.Add(q)
	}
	for _, q := range fuzzSeeds {
		f.Add(q)
	}

	db, end := testDB(f)
	base := DefaultEngineOptions()
	base.MaxSamples = 1_000_000
	base.Timeout = 5 * time.Second
	planner := NewEngine(db, base)

	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 512 {
			return
		}
		expr, err := Parse(input)
		if err != nil {
			return // invalid input; not panicking is the property
		}
		// Every input that plans renders, saturated ±inf hints and deep
		// subqueries included: the Explain tree and the compact form.
		tree, terr := planner.Explain(input)
		compact, cerr := explainCompact(planner, expr)
		if (terr == nil) != (cerr == nil) {
			t.Fatalf("%q: Explain error %v, compact form error %v", input, terr, cerr)
		}
		if terr == nil && (!strings.HasPrefix(tree, "plan for: "+expr.String()+"\n") || !strings.Contains(compact, " | ")) {
			t.Fatalf("%q: malformed plan renderings\ntree:\n%s\ncompact: %s", input, tree, compact)
		}
		if fuzzTooDeep(expr) {
			return
		}
		ctx := context.Background()

		pv, perr := query(ctx, planner, input, end)
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

		start := end.Add(-10 * time.Minute)
		pm, perr := queryRange(ctx, planner, input, start, end, time.Minute)
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
	})
}
