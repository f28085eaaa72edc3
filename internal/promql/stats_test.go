package promql

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestQueryStatsByteIdentity: per-operator stats collection must be
// invisible in results. Under a WithQueryStats capture every query runs
// the whole collection path (slot allocation, per-part accumulation,
// deposit); every corpus query, over every window shape, must
// still render byte-identically to the oracle, which collects nothing.
func TestQueryStatsByteIdentity(t *testing.T) {
	db, end := testDB(t)
	// The store is one shard; the subtest keeps the name it has always had.
	t.Run("shards=1", func(t *testing.T) {
		eng := NewEngine(db, DefaultEngineOptions())
		captured := func() context.Context {
			ctx, _ := WithQueryStats(context.Background())
			return ctx
		}
		for _, w := range corpusWindows(end) {
			for _, q := range rangeCorpus {
				checkRangeAgainstOracle(captured(), t, "captured", eng, q, w)
			}
			// Instant evaluation at the window end must agree too.
			for _, q := range rangeCorpus {
				checkInstantAgainstOracle(captured(), t, eng, q, w.end)
			}
		}
	})
}

// TestWithQueryStatsCapture: a range evaluation under WithQueryStats must
// deposit a fully-populated profile — totals, steps, budget, cache flag,
// and a per-operator tree whose shape matches the plan.
func TestWithQueryStatsCapture(t *testing.T) {
	db, end := testDB(t)
	opts := DefaultEngineOptions()
	eng := NewEngine(db, opts)

	const q = "sum by (instance) (rate(amfcc_n1_auth_request[5m]))"
	ctx, cap := WithQueryStats(context.Background())
	if _, err := queryRange(ctx, eng, q, end.Add(-10*time.Minute), end, time.Minute); err != nil {
		t.Fatal(err)
	}
	qs := cap.Stats()
	if qs == nil {
		t.Fatal("no stats captured from a plan-based range evaluation")
	}
	if qs.Kind != "range" {
		t.Errorf("Kind = %q, want range", qs.Kind)
	}
	if qs.Steps != 11 {
		t.Errorf("Steps = %d, want 11", qs.Steps)
	}
	if qs.Samples <= 0 {
		t.Errorf("Samples = %d, want > 0", qs.Samples)
	}
	if qs.PlanCacheHit {
		t.Error("first evaluation reported a plan cache hit")
	}
	if qs.MaxSamples != opts.MaxSamples {
		t.Errorf("MaxSamples = %d, want %d", qs.MaxSamples, opts.MaxSamples)
	}
	if qs.Root == nil {
		t.Fatal("captured stats carry no operator tree")
	}
	// Plan shape: agg -> range_fn -> window scan. Each operator must have
	// been called once per step with real output counts.
	if !strings.HasPrefix(qs.Root.Op, "agg sum by (instance)") {
		t.Errorf("root op = %q, want agg sum by (instance)", qs.Root.Op)
	}
	if qs.Root.Calls != 11 {
		t.Errorf("root Calls = %d, want 11 (one per step)", qs.Root.Calls)
	}
	if qs.Root.SeriesOut != 2*11 {
		t.Errorf("root SeriesOut = %d, want 22 (2 groups x 11 steps)", qs.Root.SeriesOut)
	}
	if len(qs.Root.Children) != 1 {
		t.Fatalf("root has %d children, want 1", len(qs.Root.Children))
	}
	rf := qs.Root.Children[0]
	if !strings.HasPrefix(rf.Op, "range_fn rate") {
		t.Errorf("child op = %q, want range_fn rate", rf.Op)
	}
	if len(rf.Children) != 1 || !strings.HasPrefix(rf.Children[0].Op, "window [5m]") {
		t.Fatalf("rate child = %+v, want a window [5m] scan", rf.Children)
	}
	if rf.Children[0].Samples <= 0 {
		t.Error("scan operator accounted no samples")
	}

	// Second evaluation of the same expression must report a cache hit.
	ctx2, cap2 := WithQueryStats(context.Background())
	if _, err := queryRange(ctx2, eng, q, end.Add(-10*time.Minute), end, time.Minute); err != nil {
		t.Fatal(err)
	}
	if qs2 := cap2.Stats(); qs2 == nil || !qs2.PlanCacheHit {
		t.Error("second evaluation did not report a plan cache hit")
	}
}

// explainAnalyze parses input, evaluates it at ts with a stats capture
// and renders the capture: EXPLAIN ANALYZE on the bare engine.
func explainAnalyze(ctx context.Context, eng *Engine, input string, ts time.Time) (string, error) {
	expr, err := Parse(input)
	if err != nil {
		return "", err
	}
	ctx, capture := WithQueryStats(ctx)
	if _, err := eng.Eval(ctx, expr, ts); err != nil {
		return "", err
	}
	return capture.Stats().Render(), nil
}

// TestExplainAnalyze pins the rendered output: header, totals line with
// the plan-cache state, and the annotated operator tree.
func TestExplainAnalyze(t *testing.T) {
	db, end := testDB(t)
	opts := DefaultEngineOptions()
	eng := NewEngine(db, opts)

	const q = "sum by (instance) (rate(amfcc_n1_auth_request[5m]))"
	out, err := explainAnalyze(context.Background(), eng, q, end)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"analyze for: sum by (instance)(rate(amfcc_n1_auth_request[5m]))",
		"plan cache miss",
		"steps 1",
		"agg sum by (instance)",
		"range_fn rate",
		"window [5m]",
		"| self ",
		" calls | ",
		" samples]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explainAnalyze output missing %q:\n%s", want, out)
		}
	}

	// The same expression analyzed again must hit the plan cache.
	out2, err := explainAnalyze(context.Background(), eng, q, end)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2, "plan cache hit") {
		t.Errorf("second explainAnalyze did not report a plan cache hit:\n%s", out2)
	}

	rctx, rcap := WithQueryStats(context.Background())
	if _, err := queryRange(rctx, eng, q, end.Add(-10*time.Minute), end, time.Minute); err != nil {
		t.Fatal(err)
	}
	if rout := rcap.Stats().Render(); !strings.Contains(rout, "steps 11") {
		t.Errorf("analyzed range plan missing steps 11:\n%s", rout)
	}

	if _, err := explainAnalyze(context.Background(), eng, "sum by ((", end); err == nil {
		t.Error("explainAnalyze accepted an unparsable expression")
	}
}

// TestQueryStatsRenderFormat pins the formatting helpers the HTTP and CLI
// surfaces rely on.
func TestQueryStatsRenderFormat(t *testing.T) {
	qs := &QueryStats{
		Query:    "up",
		Kind:     "instant",
		Duration: 1500 * time.Microsecond,
		Samples:  42,
		Steps:    1,
		Root: &OpStats{
			Op: "agg sum", Wall: time.Millisecond, Calls: 1, SeriesOut: 1,
			Children: []*OpStats{
				{Op: "scan #0 up", Wall: 600 * time.Microsecond, Calls: 1, SeriesOut: 3, Samples: 42},
			},
		},
	}
	out := qs.Render()
	for _, want := range []string{
		"analyze for: up\n",
		"total 1.50ms | samples 42 | steps 1 | plan cache miss\n",
		"└─ agg sum  [1.00ms 100% | self 400µs | 1 calls | 1 out]\n",
		"   └─ scan #0 up  [600µs 60% | self 600µs | 1 calls | 3 out | 42 samples]\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	compact := qs.Compact()
	const wantCompact = "agg sum{1.00ms 100% 1 out}(scan #0 up{600µs 60% 3 out}) | total=1.50ms samples=42 steps=1"
	if compact != wantCompact {
		t.Errorf("Compact = %q, want %q", compact, wantCompact)
	}

	// Self-time clamps at zero when the children's scaled estimates exceed
	// the parent's.
	o := &OpStats{Wall: time.Millisecond, Children: []*OpStats{{Wall: 2 * time.Millisecond}}}
	if o.Self() != 0 {
		t.Errorf("Self() = %v, want 0 when children exceed the parent", o.Self())
	}

	if got := formatBudget(10, 100); got != "10/100" {
		t.Errorf("formatBudget(10, 100) = %q, want 10/100", got)
	}
	if got := formatDur(2 * time.Second); got != "2.000s" {
		t.Errorf("formatDur(2s) = %q, want 2.000s", got)
	}
}

// renderCounts draws an analyzed operator tree with each operator's
// calls, output series and samples, and no timings.
func renderCounts(b *strings.Builder, o *OpStats, head, tail string) {
	fmt.Fprintf(b, "%s%s  [%d calls | %d out | %d samples]\n", head, o.Op, o.Calls, o.SeriesOut, o.Samples)
	for i, c := range o.Children {
		if i == len(o.Children)-1 {
			renderCounts(b, c, tail+"└─ ", tail+"   ")
		} else {
			renderCounts(b, c, tail+"├─ ", tail+"│  ")
		}
	}
}

// TestInstantAnalyzeCounts pins an instant query's per-operator EXPLAIN
// ANALYZE counts over testDB, timings stripped: TestPlanGolden renders
// the same trees over an empty store, so only this test pins the numbers.
func TestInstantAnalyzeCounts(t *testing.T) {
	db, end := testDB(t)
	eng := NewEngine(db, DefaultEngineOptions())
	for _, c := range []struct{ q, want string }{
		{`smf_pdu_session_active`, `
			scan #0 smf_pdu_session_active hint [start-5m, end]  [1 calls | 2 out | 2 samples]
`},
		{`smf_pdu_session_active offset 5m`, `
			scan #0 smf_pdu_session_active offset 5m hint [start-10m, end-5m]  [1 calls | 2 out | 2 samples]
`},
		{`rate(amfcc_n1_auth_request[5m])`, `
			range_fn rate()  [1 calls | 2 out | 0 samples]
			└─ window [5m] scan #0 amfcc_n1_auth_request hint [start-5m, end]  [1 calls | 2 out | 40 samples]
`},
		{`amfcc_n1_auth_request[1m]`, `
			window [1m] scan #0 amfcc_n1_auth_request hint [start-1m, end]  [1 calls | 2 out | 8 samples]
`},
		{`max_over_time(sum(amfcc_n1_auth_request)[10m:1m])`, `
			range_fn max_over_time()  [1 calls | 1 out | 0 samples]
			└─ subquery [10m:1m]  [1 calls | 1 out | 0 samples]
			   └─ agg sum  [10 calls | 10 out | 0 samples]
			      └─ scan #0 amfcc_n1_auth_request hint [start-15m, end]  [10 calls | 20 out | 20 samples]
`},
		{`avg_over_time(rate(amfcc_n1_auth_request[5m])[10m:2m])`, `
			range_fn avg_over_time()  [1 calls | 2 out | 0 samples]
			└─ subquery [10m:2m]  [1 calls | 2 out | 0 samples]
			   └─ range_fn rate()  [5 calls | 10 out | 0 samples]
			      └─ window [5m] scan #0 amfcc_n1_auth_request hint [start-15m, end]  [5 calls | 10 out | 200 samples]
`},
		{`amfcc_n1_auth_request - amfcc_n1_auth_request offset 5m`, `
			binop -  [1 calls | 2 out | 0 samples]
			├─ scan #0 amfcc_n1_auth_request hint [start-10m, end]  [1 calls | 2 out | 2 samples]
			└─ scan #0 amfcc_n1_auth_request offset 5m hint [start-10m, end]  [1 calls | 2 out | 2 samples]
`},
		{`100 * sum(smf_pdu_session_active) / sum(amfcc_n1_auth_request)`, `
			binop /  [1 calls | 1 out | 0 samples]
			├─ binop *  [1 calls | 1 out | 0 samples]
			│  ├─ const 100  [1 calls | 0 out | 0 samples]
			│  └─ agg sum  [1 calls | 1 out | 0 samples]
			│     └─ scan #0 smf_pdu_session_active hint [start-5m, end]  [1 calls | 2 out | 2 samples]
			└─ agg sum  [1 calls | 1 out | 0 samples]
			   └─ scan #1 amfcc_n1_auth_request hint [start-5m, end]  [1 calls | 2 out | 2 samples]
`},
		{`topk(1, smf_pdu_session_active)`, `
			agg topk  [1 calls | 1 out | 0 samples]
			├─ scan #0 smf_pdu_session_active hint [start-5m, end]  [1 calls | 2 out | 2 samples]
			└─ const 1  [1 calls | 0 out | 0 samples]
`},
		{`sum by (instance) (rate(amfcc_n1_auth_request[5m]))`, `
			agg sum by (instance)  [1 calls | 2 out | 0 samples]
			└─ range_fn rate()  [1 calls | 2 out | 0 samples]
			   └─ window [5m] scan #0 amfcc_n1_auth_request hint [start-5m, end]  [1 calls | 2 out | 40 samples]
`},
		{`histogram_quantile(0.9, http_request_duration_seconds_bucket)`, `
			call histogram_quantile()  [1 calls | 1 out | 0 samples]
			├─ const 0.9  [1 calls | 0 out | 0 samples]
			└─ scan #0 http_request_duration_seconds_bucket hint [start-5m, end]  [1 calls | 3 out | 3 samples]
`},
	} {
		ctx, capture := WithQueryStats(context.Background())
		if _, err := query(ctx, eng, c.q, end); err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		var b strings.Builder
		renderCounts(&b, capture.Stats().Root, "", "")
		want := strings.ReplaceAll(strings.TrimPrefix(c.want, "\n"), "\t", "")
		if got := b.String(); got != want {
			t.Errorf("%s: counts\n%s\nwant\n%s", c.q, got, want)
		}
	}
}
