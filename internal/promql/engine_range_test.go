package promql

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
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
func checkRangeAgainstOracle(t *testing.T, name string, eng *Engine, q string, w rangeWindow) {
	t.Helper()
	ctx := context.Background()
	want, wantErr := oracleQueryRange(ctx, eng, q, w.start, w.end, w.step)
	m, err := eng.QueryRange(ctx, q, w.start, w.end, w.step)
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
func checkInstantAgainstOracle(t *testing.T, eng *Engine, q string, ts time.Time) {
	t.Helper()
	ctx := context.Background()
	want, wantErr := oracleQuery(ctx, eng, q, ts)
	got, err := eng.Query(ctx, q, ts)
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
			checkRangeAgainstOracle(t, "default", eng, q, w)
		}
	}
}

// TestQueryRangeEquivalenceSingleWorker pins that the parallel executor and
// a single-worker executor (no partitioning, no branch parallelism) render
// identically — parallelism must be invisible in results.
func TestQueryRangeEquivalenceSingleWorker(t *testing.T) {
	db, end := testDB(t)
	par := DefaultEngineOptions()
	par.ExecWorkers = 8
	seq := par
	seq.ExecWorkers = 1
	pe, se := NewEngine(db, par), NewEngine(db, seq)

	start := end.Add(-25 * time.Minute)
	for _, q := range rangeCorpus {
		m1, err1 := pe.QueryRange(context.Background(), q, start, end, 5*time.Second)
		m2, err2 := se.QueryRange(context.Background(), q, start, end, 5*time.Second)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%q: error mismatch: workers=8 %v workers=1 %v", q, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if got, want := m1.String(), m2.String(); got != want {
			t.Errorf("%q: matrices differ\nworkers=8:\n%s\nworkers=1:\n%s", q, got, want)
		}
	}
}

// TestQueryRangeStats: the select-once cache must fetch each selector from
// storage exactly once per range query and serve every later step from the
// cache, with cursor resets only on non-monotone (subquery) timelines.
func TestQueryRangeStats(t *testing.T) {
	db, end := testDB(t)
	eng := NewEngine(db, DefaultEngineOptions())
	var stats RangeStats
	var calls int
	eng.SetHooks(Hooks{OnRangeEval: func(s RangeStats) { stats = s; calls++ }})

	start := end.Add(-10 * time.Minute)
	if _, err := eng.QueryRange(context.Background(), "rate(amfcc_n1_auth_request[5m])", start, end, time.Minute); err != nil {
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
	if stats.CursorResets != 0 {
		t.Errorf("CursorResets = %d, want 0 for a monotone range", stats.CursorResets)
	}

	// Subqueries rewind the inner timeline at each outer step; the cache
	// must absorb that as counted re-seeks, never as a second fetch.
	if _, err := eng.QueryRange(context.Background(), "avg_over_time(sum(smf_pdu_session_active)[10m:1m])", start, end, time.Minute); err != nil {
		t.Fatal(err)
	}
	if stats.SelectorMisses != 1 {
		t.Errorf("subquery SelectorMisses = %d, want 1", stats.SelectorMisses)
	}
	if stats.CursorResets == 0 {
		t.Error("subquery range produced no cursor resets; expected re-seeks on inner-timeline rewinds")
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
	if _, err := eng.QueryRange(context.Background(), q, end.Add(-5*time.Minute), end, time.Minute); !errors.Is(err, ErrTooManySamples) {
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
