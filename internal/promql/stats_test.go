package promql

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dio/internal/obs"
	"dio/internal/tsdb"
)

// TestQueryStatsByteIdentity: per-operator stats collection must be
// invisible in results. With a finished-query hook installed every query
// runs the whole collection path (slot allocation, atomic accumulation,
// buildStats, Compact); every corpus query, over every window shape, must
// still render byte-identically to the oracle, which collects nothing — on
// the single-DB store and again at 4 shards, where collection also runs
// inside the distribute fan-out goroutines.
func TestQueryStatsByteIdentity(t *testing.T) {
	base, end := unshardedTestDB(t)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var db tsdb.Storage = base
			if shards > 1 {
				db = tsdb.Reshard(base, shards)
			}
			eng := NewEngine(db, DefaultEngineOptions())
			eng.SetHooks(Hooks{OnQueryDone: func(obs.QueryLogEntry) {}})
			for _, w := range corpusWindows(end) {
				for _, q := range rangeCorpus {
					checkRangeAgainstOracle(t, "hooked", eng, q, w)
				}
				// Instant evaluation at the window end must agree too.
				for _, q := range rangeCorpus {
					checkInstantAgainstOracle(t, eng, q, w.end)
				}
			}
		})
	}
}

// TestWithQueryStatsCapture: a range evaluation under WithQueryStats must
// deposit a fully-populated profile — totals, steps, budget, cache flag,
// and a per-operator tree whose shape matches the plan.
func TestWithQueryStatsCapture(t *testing.T) {
	// Unsharded on purpose: the assertions pin the exact agg -> range_fn ->
	// window plan shape, which a DIO_TSDB_SHARDS run would wrap in a
	// distribute node (covered by TestQueryStatsShardWall).
	db, end := unshardedTestDB(t)
	opts := DefaultEngineOptions()
	eng := NewEngine(db, opts)

	const q = "sum by (instance) (rate(amfcc_n1_auth_request[5m]))"
	ctx, cap := WithQueryStats(context.Background())
	if _, err := eng.QueryRange(ctx, q, end.Add(-10*time.Minute), end, time.Minute); err != nil {
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
	if _, err := eng.QueryRange(ctx2, q, end.Add(-10*time.Minute), end, time.Minute); err != nil {
		t.Fatal(err)
	}
	if qs2 := cap2.Stats(); qs2 == nil || !qs2.PlanCacheHit {
		t.Error("second evaluation did not report a plan cache hit")
	}
}

// TestQueryStatsShardWall: on sharded storage the distribute node's stats
// must carry one wall-time slot per shard.
func TestQueryStatsShardWall(t *testing.T) {
	base, end := unshardedTestDB(t)
	opts := DefaultEngineOptions()
	eng := NewEngine(tsdb.Reshard(base, 4), opts)

	ctx, cap := WithQueryStats(context.Background())
	if _, err := eng.QueryRange(ctx, "sum(rate(amfcc_n1_auth_request[5m]))", end.Add(-10*time.Minute), end, time.Minute); err != nil {
		t.Fatal(err)
	}
	qs := cap.Stats()
	if qs == nil {
		t.Fatal("no stats captured")
	}
	if qs.Shards != 4 {
		t.Errorf("Shards = %d, want 4", qs.Shards)
	}
	var dist *OpStats
	var walk func(o *OpStats)
	walk = func(o *OpStats) {
		if strings.HasPrefix(o.Op, "distribute[") {
			dist = o
		}
		for _, c := range o.Children {
			walk(c)
		}
	}
	walk(qs.Root)
	if dist == nil {
		t.Fatalf("no distribute node in the analyzed tree:\n%s", qs.Render())
	}
	if len(dist.ShardWall) != 4 {
		t.Errorf("distribute ShardWall has %d slots, want 4", len(dist.ShardWall))
	}
}

// TestExplainAnalyze pins the rendered output: header, totals line with
// the plan-cache state, and the annotated operator tree.
func TestExplainAnalyze(t *testing.T) {
	db, end := testDB(t)
	opts := DefaultEngineOptions()
	eng := NewEngine(db, opts)

	const q = "sum by (instance) (rate(amfcc_n1_auth_request[5m]))"
	out, err := eng.ExplainAnalyze(context.Background(), q, end)
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
			t.Errorf("ExplainAnalyze output missing %q:\n%s", want, out)
		}
	}

	// The same expression analyzed again must hit the plan cache.
	out2, err := eng.ExplainAnalyze(context.Background(), q, end)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2, "plan cache hit") {
		t.Errorf("second ExplainAnalyze did not report a plan cache hit:\n%s", out2)
	}

	rctx, rcap := WithQueryStats(context.Background())
	if _, err := eng.QueryRange(rctx, q, end.Add(-10*time.Minute), end, time.Minute); err != nil {
		t.Fatal(err)
	}
	if rout := rcap.Stats().Render(); !strings.Contains(rout, "steps 11") {
		t.Errorf("analyzed range plan missing steps 11:\n%s", rout)
	}

	if _, err := eng.ExplainAnalyze(context.Background(), "sum by ((", end); err == nil {
		t.Error("ExplainAnalyze accepted an unparsable expression")
	}
}

// TestQueryHooks: OnQueryStart must fire with the canonical query text and
// kind and have its release called on finish; OnQueryDone must receive an
// entry carrying the measured totals and the compact analyzed plan, on
// success and on failure alike.
func TestQueryHooks(t *testing.T) {
	db, end := testDB(t)
	opts := DefaultEngineOptions()
	eng := NewEngine(db, opts)

	var started, released atomic.Int64
	var startQuery, startKind string
	var entries []obs.QueryLogEntry
	eng.SetHooks(Hooks{
		OnQueryStart: func(query, kind, traceID string) func() {
			started.Add(1)
			startQuery, startKind = query, kind
			return func() { released.Add(1) }
		},
		OnQueryDone: func(e obs.QueryLogEntry) { entries = append(entries, e) },
	})

	if _, err := eng.Query(context.Background(), "sum(rate(amfcc_n1_auth_request[5m]))", end); err != nil {
		t.Fatal(err)
	}
	if started.Load() != 1 || released.Load() != 1 {
		t.Fatalf("start/release fired %d/%d times, want 1/1", started.Load(), released.Load())
	}
	if startQuery != "sum(rate(amfcc_n1_auth_request[5m]))" || startKind != "instant" {
		t.Errorf("OnQueryStart got (%q, %q), want the canonical query and kind instant", startQuery, startKind)
	}
	if len(entries) != 1 {
		t.Fatalf("OnQueryDone fired %d times, want 1", len(entries))
	}
	ent := entries[0]
	if ent.Query != "sum(rate(amfcc_n1_auth_request[5m]))" || ent.Kind != "instant" {
		t.Errorf("entry = {%q %q}, want the query and kind instant", ent.Query, ent.Kind)
	}
	if ent.Duration <= 0 {
		t.Error("entry Duration is zero")
	}
	if ent.Samples <= 0 {
		t.Error("entry carries no sample count")
	}
	if ent.Err != "" {
		t.Errorf("entry Err = %q on a successful query", ent.Err)
	}
	if !strings.Contains(ent.Plan, "agg sum{") {
		t.Errorf("entry Plan = %q, want a compact analyzed plan", ent.Plan)
	}

	// Range queries report kind "range" and their step count.
	entries = nil
	if _, err := eng.QueryRange(context.Background(), "smf_pdu_session_active", end.Add(-5*time.Minute), end, time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Kind != "range" || entries[0].Steps != 6 {
		t.Fatalf("range entry = %+v, want kind range with 6 steps", entries)
	}

	// A failed evaluation still releases the tracker slot and logs the
	// error text.
	entries = nil
	tight := opts
	tight.MaxSamples = 1
	small := NewEngine(db, tight)
	small.SetHooks(Hooks{
		OnQueryStart: func(string, string, string) func() { return func() { released.Add(1) } },
		OnQueryDone:  func(e obs.QueryLogEntry) { entries = append(entries, e) },
	})
	if _, err := small.Query(context.Background(), "amfcc_n1_auth_request", end); err == nil {
		t.Fatal("expected a sample-budget error")
	}
	if released.Load() != 3 {
		t.Error("failed query did not release its tracker slot")
	}
	if len(entries) != 1 || entries[0].Err == "" {
		t.Fatalf("failed query entry = %+v, want a logged error", entries)
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
		Shards:   2,
		Root: &OpStats{
			Op: "agg sum", Wall: time.Millisecond, Calls: 1, SeriesOut: 1,
			Children: []*OpStats{
				{Op: "scan #0 up", Wall: 600 * time.Microsecond, Calls: 1, SeriesOut: 3, Samples: 42,
					ShardWall: []time.Duration{300 * time.Microsecond, 250 * time.Microsecond}},
			},
		},
	}
	out := qs.Render()
	for _, want := range []string{
		"analyze for: up\n",
		"total 1.50ms | samples 42 | steps 1 | plan cache miss | shards 2\n",
		"└─ agg sum  [1.00ms 100% | self 400µs | 1 calls | 1 out]\n",
		"   └─ scan #0 up  [600µs 60% | self 600µs | 1 calls | 3 out | 42 samples]  shards[300µs 250µs]\n",
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

	// Self-time clamps at zero when parallel children overlap the parent.
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
