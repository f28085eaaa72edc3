package promql

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"dio/internal/tsdb"
)

// rangeCorpus exercises every evaluation shape that touches storage:
// plain/filtered/offset selectors, range functions, aggregations, binary
// and set operators, subqueries (non-monotone inner timelines), histogram
// quantiles, and matchers the postings index cannot answer.
var rangeCorpus = []string{
	"amfcc_n1_auth_request",
	`amfcc_n1_auth_request{instance="a"}`,
	`amfcc_n1_auth_request{instance=~"a|b"}`,
	`amfcc_n1_auth_request{instance!="a"}`,
	`smf_pdu_session_active{nf=""}`, // label-absent matcher: must bypass the index
	`amfcc_n1_auth_request offset 5m`,
	"rate(amfcc_n1_auth_request[5m])",
	"increase(amfcc_n1_auth_request[10m])",
	"sum(rate(amfcc_n1_auth_request[5m]))",
	"sum by (instance) (rate(amfcc_n1_auth_request[5m]))",
	"avg by (instance) (smf_pdu_session_active)",
	"max_over_time(smf_pdu_session_active[10m])",
	"topk(1, smf_pdu_session_active)",
	"smf_pdu_session_active / 100",
	"smf_pdu_session_active > 150",
	`rate(amfcc_n1_auth_request[5m]) + on(instance) group_left smf_pdu_session_active`,
	"amfcc_n1_auth_request and smf_pdu_session_active",
	"smf_pdu_session_active or vector(1)",
	"avg_over_time(sum(smf_pdu_session_active)[10m:1m])",
	"max_over_time(rate(amfcc_n1_auth_request[5m])[15m:2m])",
	"histogram_quantile(0.9, http_request_duration_seconds_bucket)",
	"absent(nonexistent_metric)",
	"nonexistent_metric",
	"count(amfcc_n1_auth_request) by (nf)",
	"scalar(sum(smf_pdu_session_active)) * 2",
}

// corpusWindows are the range shapes the differential tests sweep: inside
// the data, before it begins, past its end (lookback/staleness) and a
// single step.
func corpusWindows(end time.Time) []rangeWindow {
	return []rangeWindow{
		{"mid", end.Add(-20 * time.Minute), end, time.Minute},
		{"pre-data", end.Add(-40 * time.Minute), end.Add(-25 * time.Minute), 30 * time.Second},
		{"past-end", end.Add(-5 * time.Minute), end.Add(10 * time.Minute), 2 * time.Minute},
		{"single-step", end, end, time.Minute},
	}
}

type rangeWindow struct {
	name       string
	start, end time.Time
	step       time.Duration
}

// checkRangeAgainstOracle fails unless eng's executor and the oracle
// (evaluating under eng's options and storage) agree on q over w: the same
// rendered matrix byte for byte, or the same error text.
func checkRangeAgainstOracle(ctx context.Context, t *testing.T, name string, eng *Engine, q string, w rangeWindow) {
	t.Helper()
	want, wantErr := oracleQueryRange(ctx, eng, q, w.start, w.end, w.step)
	m, err := queryRange(ctx, eng, q, w.start, w.end, w.step)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s %s %q: error mismatch: executor=%v oracle=%v", name, w.name, q, err, wantErr)
	}
	if err != nil {
		if err.Error() != wantErr.Error() {
			t.Errorf("%s %s %q: error text differs\nexecutor: %v\noracle:   %v", name, w.name, q, err, wantErr)
		}
		return
	}
	if got, ref := m.String(), want.String(); got != ref {
		t.Errorf("%s %s %q: matrices differ\nexecutor:\n%s\noracle:\n%s", name, w.name, q, got, ref)
	}
}

// checkInstantAgainstOracle is checkRangeAgainstOracle for one instant.
func checkInstantAgainstOracle(ctx context.Context, t *testing.T, eng *Engine, q string, ts time.Time) {
	t.Helper()
	want, wantErr := oracleQuery(ctx, eng, q, ts)
	got, err := query(ctx, eng, q, ts)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("instant %q: error mismatch: executor=%v oracle=%v", q, err, wantErr)
	}
	if err != nil {
		return
	}
	if g, r := FormatValue(got), FormatValue(want); g != r {
		t.Errorf("instant %q: results differ\nexecutor:\n%s\noracle:\n%s", q, g, r)
	}
}

// TestQueryRangeEquivalence: the plan-based executor and the oracle (full
// storage selection per step) must produce byte-identical matrices for
// every corpus query, over windows that include steps before data begins
// and steps past its end (lookback/staleness).
func TestQueryRangeEquivalence(t *testing.T) {
	db, end := testDB(t)
	eng := NewEngine(db, DefaultEngineOptions())
	for _, w := range corpusWindows(end) {
		for _, q := range rangeCorpus {
			checkRangeAgainstOracle(context.Background(), t, "default", eng, q, w)
		}
	}
}

// TestQueryRangeEquivalenceSingleWorker pins that the executor, which runs
// every step of a range query in one part on one goroutine, renders the
// oracle's matrices over a wider store: testDB gains 120 more instances of
// its counter and its gauge, one sample each at the start of a 301-step
// window, so every step carries many series while the work stays small.
func TestQueryRangeEquivalenceSingleWorker(t *testing.T) {
	db, end := testDB(t)
	eng := NewEngine(db, DefaultEngineOptions())
	wide := rangeWindow{"120-instances", end.Add(-25 * time.Minute), end, 5 * time.Second}
	for i := 0; i < 120; i++ {
		inst := fmt.Sprintf("p%03d", i)
		mustAppend(t, db, map[string]string{"__name__": "amfcc_n1_auth_request", "nf": "amf", "instance": inst}, wide.start.UnixMilli(), float64(i))
		mustAppend(t, db, map[string]string{"__name__": "smf_pdu_session_active", "instance": inst}, wide.start.UnixMilli(), float64(i))
	}
	for _, q := range rangeCorpus {
		checkRangeAgainstOracle(context.Background(), t, "default", eng, q, wide)
	}
}

// TestQueryRangeStats: the select-once cache must fetch each selector from
// storage exactly once per range query and serve every later step from the
// cache, and a subquery must evaluate each aligned inner step once.
func TestQueryRangeStats(t *testing.T) {
	db, end := testDB(t)
	eng := NewEngine(db, DefaultEngineOptions())
	var stats RangeStats
	var calls int
	eng.SetHooks(Hooks{OnRangeEval: func(s RangeStats) { stats = s; calls++ }})

	start := end.Add(-10 * time.Minute)
	if _, err := queryRange(context.Background(), eng, "rate(amfcc_n1_auth_request[5m])", start, end, time.Minute); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("OnRangeEval fired %d times, want 1", calls)
	}
	// 11 steps, one selector node: 1 storage fetch, 10 cache hits.
	if stats.SelectorMisses != 1 {
		t.Errorf("SelectorMisses = %d, want 1", stats.SelectorMisses)
	}
	if stats.SelectorHits != 10 {
		t.Errorf("SelectorHits = %d, want 10", stats.SelectorHits)
	}

	// The 11 outer windows of [10m:1m] hold 10 inner steps each, but only
	// 20 distinct ones, the minutes in (start-10m, end]: the inner sum
	// runs once per distinct step, not 110 times, off one fetch.
	ctx, capture := WithQueryStats(context.Background())
	if _, err := queryRange(ctx, eng, "avg_over_time(sum(smf_pdu_session_active)[10m:1m])", start, end, time.Minute); err != nil {
		t.Fatal(err)
	}
	if stats.SelectorMisses != 1 {
		t.Errorf("subquery SelectorMisses = %d, want 1", stats.SelectorMisses)
	}
	sub := capture.Stats().Root.Children[0]
	if agg := sub.Children[0]; agg.Op != "agg sum" || agg.Calls != 20 {
		t.Errorf("inner %q ran %d times, want agg sum once per inner step: 20", agg.Op, agg.Calls)
	}
}

// TestQueryRangeMaxSamplesPerStep: the sample budget is per step on the
// executor exactly as on the oracle — the prefetch must not change when a
// query trips MaxSamples.
func TestQueryRangeMaxSamplesPerStep(t *testing.T) {
	db, end := testDB(t)
	opts := DefaultEngineOptions()
	opts.MaxSamples = 3 // each step touches 4 series
	eng := NewEngine(db, opts)
	const q = "amfcc_n1_auth_request + smf_pdu_session_active"
	if _, err := queryRange(context.Background(), eng, q, end.Add(-5*time.Minute), end, time.Minute); !errors.Is(err, ErrTooManySamples) {
		t.Errorf("executor: got %v, want ErrTooManySamples", err)
	}
	if _, err := oracleQueryRange(context.Background(), eng, q, end.Add(-5*time.Minute), end, time.Minute); !errors.Is(err, ErrTooManySamples) {
		t.Errorf("oracle: got %v, want ErrTooManySamples", err)
	}
}

// TestQueryRangeStepLimit: a range asking for more than maxRangeSteps steps
// is refused from the arithmetic step count, before the step slice, the
// plan or the prefetch exist — so it costs (almost) nothing however many
// steps were asked for, even under a deadline far shorter than building
// them would take.
func TestQueryRangeStepLimit(t *testing.T) {
	db, _ := testDB(t)
	eng := NewEngine(db, DefaultEngineOptions())
	expr, err := Parse("smf_pdu_session_active")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Unix(0, 0)
	// Exactly at the limit is served.
	if _, err := eng.QueryRangeExpr(context.Background(), expr, start, start.Add((maxRangeSteps-1)*time.Second), time.Second); err != nil {
		t.Fatalf("%d steps: %v", maxRangeSteps, err)
	}
	if _, err := eng.QueryRangeExpr(context.Background(), expr, start, start.Add(maxRangeSteps*time.Second), time.Second); err == nil || !strings.Contains(err.Error(), "exceeds the maximum of 11000") {
		t.Fatalf("%d steps: got %v, want the step-limit error", maxRangeSteps+1, err)
	}

	// 130 years at 1 ms: ~4.1e12 steps.
	end := time.Unix(4102444800, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	began := time.Now()
	_, err = eng.QueryRangeExpr(context.Background(), expr, start, end, time.Millisecond)
	took := time.Since(began)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "exceeds the maximum of 11000") {
		t.Fatalf("got %v, want the step-limit error", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("refused query allocated %d bytes, want < 1 MB", alloc)
	}
	if took > time.Second {
		t.Errorf("refused query took %v, want milliseconds", took)
	}
}

// counterDB holds n counters named name, sampled every 15 s over d from
// base.
func counterDB(t testing.TB, name string, n int, base time.Time, d time.Duration) *tsdb.DB {
	t.Helper()
	db := tsdb.New()
	for i := 0; i < n; i++ {
		ls := tsdb.FromMap(map[string]string{tsdb.MetricNameLabel: name, "instance": fmt.Sprintf("i-%04d", i)})
		for s := time.Duration(0); s <= d; s += 15 * time.Second {
			if err := db.Append(ls, base.Add(s).UnixMilli(), float64(int(s/time.Second)*(i%7+1))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// TestFoldOnError fails a range query at its last step and requires
// OnRangeEval to see the counters of every step before it: the part hands
// them over on the error path. 800 counters are read at every 10 s step;
// one more series has its only sample at the last step, so a MaxSamples of
// 800 fails exactly there.
func TestFoldOnError(t *testing.T) {
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	end := base.Add(15 * time.Minute)
	db := counterDB(t, "m", 800, base, 15*time.Minute)
	late := tsdb.FromMap(map[string]string{tsdb.MetricNameLabel: "m", "instance": "late"})
	if err := db.Append(late, end.UnixMilli(), 1); err != nil {
		t.Fatal(err)
	}
	const step = 10 * time.Second
	nSteps := int(end.Sub(base)/step) + 1
	opts := DefaultEngineOptions()
	opts.MaxSamples = 800
	eng := NewEngine(db, opts)
	var rs RangeStats
	eng.SetHooks(Hooks{OnRangeEval: func(s RangeStats) { rs = s }})
	if _, err := queryRange(context.Background(), eng, "sum(m)", base, end, step); !errors.Is(err, ErrTooManySamples) {
		t.Fatalf("got %v, want ErrTooManySamples", err)
	}
	// The one scan is served once per evaluated step.
	if served := rs.SelectorHits + rs.SelectorMisses; served != nSteps {
		t.Errorf("%d steps served, want all %d", served, nSteps)
	}
}

// TestRangeCancellation: a range query polls its context at every
// operator. Cancelling it, or letting the engine's timeout expire, after
// its first steps ends it before it has evaluated them all, with the
// context's error.
func TestRangeCancellation(t *testing.T) {
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	end := base.Add(3 * time.Hour)
	db := counterDB(t, "slow_total", 300, base, 3*time.Hour)
	const q = "sum(rate(slow_total[5m]))"
	const step = time.Second // 10 801 steps: far longer than the delays below
	nSteps := int(end.Sub(base)/step) + 1
	for _, timeout := range []bool{false, true} {
		opts := DefaultEngineOptions()
		if timeout {
			opts.Timeout = time.Millisecond
		}
		eng := NewEngine(db, opts)
		ctx, cancel := context.WithCancel(context.Background())
		var rs RangeStats
		eng.SetHooks(Hooks{OnRangeEval: func(s RangeStats) { rs = s }})
		want := context.Canceled
		if timeout {
			want = context.DeadlineExceeded
		} else {
			time.AfterFunc(time.Millisecond, cancel)
		}
		_, err := queryRange(ctx, eng, q, base, end, step)
		cancel()
		if !errors.Is(err, want) {
			t.Errorf("timeout=%v: got %v, want %v", timeout, err, want)
		}
		if served := rs.SelectorHits + rs.SelectorMisses; served >= nSteps {
			t.Errorf("timeout=%v: evaluated all %d steps", timeout, nSteps)
		}
	}
}
