package sandbox

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dio/internal/obs"
	"dio/internal/promql"
	"dio/internal/tsdb"
)

func fixtureDB(t *testing.T) (*tsdb.DB, time.Time) {
	t.Helper()
	db := tsdb.New()
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		ts := base.Add(time.Duration(i) * 15 * time.Second).UnixMilli()
		for _, inst := range []string{"a", "b"} {
			ls := tsdb.FromMap(map[string]string{"__name__": "m_total", "instance": inst})
			if err := db.Append(ls, ts, float64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db, base.Add(19 * 15 * time.Second)
}

// instrumented returns an executor over db with its self-metrics on a
// fresh registry, and a reader of dio_sandbox_queries_total{outcome}.
func instrumented(db tsdb.Storage, lim Limits) (*Executor, func(Outcome) float64) {
	reg := obs.NewRegistry()
	ex := New(db, lim)
	ex.Instrument(reg)
	return ex, func(outcome Outcome) float64 {
		for _, fam := range reg.Gather() {
			if fam.Name != "dio_sandbox_queries_total" {
				continue
			}
			for _, s := range fam.Samples {
				if s.Labels[0].Value == string(outcome) {
					return s.Value
				}
			}
		}
		return 0
	}
}

func TestExecuteBasic(t *testing.T) {
	db, at := fixtureDB(t)
	ex, queries := instrumented(db, DefaultLimits())
	v, err := ex.Execute(context.Background(), "sum(m_total)", at)
	if err != nil {
		t.Fatal(err)
	}
	res := promql.Numeric(v)
	if len(res) != 1 || res[0].V != 38 {
		t.Fatalf("result = %v, want 38", res)
	}
	if n := queries(OutcomeExecuted); n != 1 {
		t.Errorf("executed = %v, want 1", n)
	}
}

func TestExecuteParseError(t *testing.T) {
	db, at := fixtureDB(t)
	ex, queries := instrumented(db, DefaultLimits())
	if _, err := ex.Execute(context.Background(), "sum(", at); err == nil {
		t.Fatal("expected parse error")
	}
	if n := queries(OutcomeFailed); n != 1 {
		t.Errorf("failed = %v, want 1", n)
	}
}

func TestVetRejectsNamelessSelector(t *testing.T) {
	db, at := fixtureDB(t)
	ex, queries := instrumented(db, DefaultLimits())
	_, err := ex.Execute(context.Background(), `sum({instance="a"})`, at)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("expected rejection, got %v", err)
	}
	if n := queries(OutcomeRejected); n != 1 {
		t.Errorf("rejected = %v, want 1", n)
	}
	// With the guard disabled, the same query runs.
	lim := DefaultLimits()
	lim.RequireSelective = false
	ex2 := New(db, lim)
	if _, err := ex2.Execute(context.Background(), `sum({instance="a"})`, at); err != nil {
		t.Fatalf("unexpected rejection: %v", err)
	}
}

func TestVetRejectsHugeRange(t *testing.T) {
	db, at := fixtureDB(t)
	lim := DefaultLimits()
	lim.MaxRange = time.Minute
	ex := New(db, lim)
	_, err := ex.Execute(context.Background(), "rate(m_total[5m])", at)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("expected range rejection, got %v", err)
	}
	if _, err := ex.Execute(context.Background(), "rate(m_total[30s])", at); err != nil {
		t.Fatalf("small range rejected: %v", err)
	}
}

func TestResultCardinalityLimit(t *testing.T) {
	db, at := fixtureDB(t)
	lim := DefaultLimits()
	lim.MaxResultSeries = 1
	ex := New(db, lim)
	// m_total has two series → exceeds the cap.
	_, err := ex.Execute(context.Background(), "m_total", at)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("expected cardinality rejection, got %v", err)
	}
	// Aggregated to one series → allowed.
	if _, err := ex.Execute(context.Background(), "sum(m_total)", at); err != nil {
		t.Fatalf("aggregate rejected: %v", err)
	}
	// A range matrix is held to the same cap.
	from := at.Add(-2 * time.Minute)
	if m, err := ex.ExecuteRange(context.Background(), "m_total", from, at, 30*time.Second); !errors.Is(err, ErrRejected) || m != nil {
		t.Fatalf("range over 2 series: got %d series, error %v; want a rejection", len(m), err)
	}
	if m, err := ex.ExecuteRange(context.Background(), "sum(m_total)", from, at, 30*time.Second); err != nil || len(m) != 1 {
		t.Fatalf("aggregated range: got %d series, error %v; want one series", len(m), err)
	}
}

func TestSampleBudget(t *testing.T) {
	db, at := fixtureDB(t)
	lim := DefaultLimits()
	lim.MaxSamples = 3
	ex := New(db, lim)
	if _, err := ex.Execute(context.Background(), "sum(rate(m_total[5m]))", at); err == nil {
		t.Fatal("expected sample-budget error")
	}
}

func TestExecuteRange(t *testing.T) {
	db, at := fixtureDB(t)
	ex := New(db, DefaultLimits())
	m, err := ex.ExecuteRange(context.Background(), "sum(m_total)", at.Add(-2*time.Minute), at, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 || len(m[0].Samples) != 5 {
		t.Fatalf("matrix = %v", m)
	}
	// Vetting applies to range queries too.
	if _, err := ex.ExecuteRange(context.Background(), `{instance="a"}`, at.Add(-time.Minute), at, 30*time.Second); !errors.Is(err, ErrRejected) {
		t.Fatalf("expected rejection, got %v", err)
	}
}

func TestContextCancel(t *testing.T) {
	db, at := fixtureDB(t)
	ex := New(db, DefaultLimits())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ex.Execute(ctx, "sum(m_total)", at); err == nil {
		t.Fatal("expected context error")
	}
}

func TestAuditLogRecordsOutcomes(t *testing.T) {
	db, at := fixtureDB(t)
	ex := New(db, DefaultLimits())
	clockT := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	audit := newAuditLog(3)
	audit.clock = func() time.Time { return clockT }
	ex.audit = audit

	ex.Execute(context.Background(), "sum(m_total)", at)        // executed
	ex.Execute(context.Background(), `sum({instance="a"})`, at) // rejected
	ex.Execute(context.Background(), "sum(", at)                // failed

	entries := audit.Entries()
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}
	wants := []Outcome{OutcomeExecuted, OutcomeRejected, OutcomeFailed}
	for i, want := range wants {
		if entries[i].Outcome != want {
			t.Errorf("entry %d outcome = %s, want %s", i, entries[i].Outcome, want)
		}
	}
	if entries[1].Error == "" || entries[2].Error == "" {
		t.Error("error details missing from audit entries")
	}

	// Ring eviction: a fourth query drops the oldest.
	ex.Execute(context.Background(), "avg(m_total)", at)
	entries = audit.Entries()
	if len(entries) != 3 || entries[0].Query != `sum({instance="a"})` {
		t.Fatalf("after eviction: %+v", entries)
	}
	if audit.Len() != 3 {
		t.Errorf("len = %d", audit.Len())
	}
}

// TestNewExecutorAudits: a new executor audits without being asked to.
func TestNewExecutorAudits(t *testing.T) {
	db, at := fixtureDB(t)
	ex := New(db, DefaultLimits())
	if _, err := ex.Execute(context.Background(), "sum(m_total)", at); err != nil {
		t.Fatal(err)
	}
	if entries := ex.Audit().Entries(); len(entries) != 1 || entries[0].Outcome != OutcomeExecuted {
		t.Fatalf("audit after one query = %+v, want one executed entry", entries)
	}
}

// TestAuditRecordsPlan: every query, instant or range, leaves an audit
// entry with its outcome. One that compiled carries the compact plan the
// engine compiled for it, whether it then ran or failed; one that never
// reached the planner (a parse failure, a vetting rejection) carries none.
func TestAuditRecordsPlan(t *testing.T) {
	db, at := fixtureDB(t)
	ex := New(db, DefaultLimits())
	queries := []struct {
		query   string
		outcome Outcome
		plan    string
	}{
		{"sum(rate(m_total[5m]))", OutcomeExecuted, "sum(rate(window[5m](scan#0)))"},
		// Compiles, then fails: both series match the one empty on() group.
		{"m_total + on() m_total", OutcomeFailed, "scan#0"},
		{"sum(", OutcomeFailed, ""},
		{`sum({instance="a"})`, OutcomeRejected, ""},
	}
	ctx := context.Background()
	for _, q := range queries {
		ex.Execute(ctx, q.query, at)
	}
	for _, q := range queries {
		ex.ExecuteRange(ctx, q.query, at.Add(-2*time.Minute), at, 30*time.Second)
	}

	entries := ex.Audit().Entries()
	if len(entries) != 2*len(queries) {
		t.Fatalf("entries = %d, want %d", len(entries), 2*len(queries))
	}
	for i, e := range entries {
		w, kind := queries[i%len(queries)], "instant"
		if i >= len(queries) {
			kind = "range"
		}
		if e.Query != w.query || e.Outcome != w.outcome {
			t.Errorf("%s entry %d = {%q %s}, want {%q %s}", kind, i, e.Query, e.Outcome, w.query, w.outcome)
		}
		if !strings.Contains(e.Plan, w.plan) || (w.plan == "") != (e.Plan == "") {
			t.Errorf("%s %q: plan %q, want one containing %q", kind, e.Query, e.Plan, w.plan)
		}
		if (w.outcome == OutcomeExecuted) != (e.Error == "") {
			t.Errorf("%s %q: error %q with outcome %s", kind, e.Query, e.Error, e.Outcome)
		}
	}
}

// peekStorage calls peek before each batched selection: a look at the
// executor's state while a query is evaluating.
type peekStorage struct {
	tsdb.Storage
	peek func()
}

func (s peekStorage) SelectBatch(hints []tsdb.SelectHint) [][]tsdb.SeriesView {
	s.peek()
	return s.Storage.SelectBatch(hints)
}

// TestQueryHooks: every evaluated query holds an active-query slot under
// its canonical text and kind while it runs, releases it when it ends,
// failed or not, and lands in the slow-query log with its kind, its
// measured totals and, on success, its compact analyzed plan, or, on
// failure, its error text. A query that vetting refuses takes no slot and
// writes no slow-log entry.
func TestQueryHooks(t *testing.T) {
	db, at := fixtureDB(t)
	tracker, _, err := obs.NewActiveQueryTracker("", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tracker.Close()
	var seen []obs.ActiveQueryEntry
	store := peekStorage{Storage: db, peek: func() { seen = append(seen, tracker.Active()...) }}
	lim := DefaultLimits()
	ex := New(store, lim)
	qlog := obs.NewQueryLog(8, time.Nanosecond)
	ex.ObserveQueries(qlog, tracker)
	ctx := context.Background()

	const canonical = "sum(rate(m_total[5m]))"
	if _, err := ex.Execute(ctx, "sum( rate(m_total[5m]) )", at); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0].Query != canonical || seen[0].Kind != "instant" {
		t.Errorf("slots held while evaluating = %+v, want one for %q, kind instant", seen, canonical)
	}
	if a := tracker.Active(); len(a) != 0 {
		t.Errorf("slots after success = %+v, want none", a)
	}
	entries := qlog.Slowest()
	if len(entries) != 1 {
		t.Fatalf("slow log = %+v, want one entry", entries)
	}
	ent := entries[0]
	if ent.Query != canonical || ent.Kind != "instant" || ent.Steps != 1 {
		t.Errorf("entry = {%q %q steps %d}, want the canonical query, kind instant and one step", ent.Query, ent.Kind, ent.Steps)
	}
	if ent.Duration <= 0 || ent.Samples <= 0 || ent.Err != "" {
		t.Errorf("entry = %+v, want a duration, samples and no error", ent)
	}
	if !strings.Contains(ent.Plan, "agg sum{") {
		t.Errorf("entry plan = %q, want a compact analyzed plan", ent.Plan)
	}

	// Range queries report kind "range" and their step count.
	seen = nil
	if _, err := ex.ExecuteRange(ctx, "m_total", at.Add(-5*time.Minute), at, time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0].Query != "m_total" || seen[0].Kind != "range" {
		t.Errorf("slots held while evaluating = %+v, want one for m_total, kind range", seen)
	}
	var rangeEnt *obs.QueryLogEntry
	for _, e := range qlog.Slowest() {
		if e.Kind == "range" {
			rangeEnt = &e
		}
	}
	if rangeEnt == nil || rangeEnt.Query != "m_total" || rangeEnt.Steps != 6 {
		t.Fatalf("range entry = %+v, want m_total with 6 steps", rangeEnt)
	}

	// A failed evaluation releases its slot and logs its error text.
	tight := lim
	tight.MaxSamples = 1
	small := New(store, tight)
	failLog := obs.NewQueryLog(8, time.Nanosecond)
	small.ObserveQueries(failLog, tracker)
	seen = nil
	if _, err := small.Execute(ctx, "m_total", at); !errors.Is(err, promql.ErrTooManySamples) {
		t.Fatalf("got %v, want the sample budget", err)
	}
	if len(seen) != 1 || len(tracker.Active()) != 0 {
		t.Errorf("failed query: %d slots held while evaluating, %d after; want 1 and 0", len(seen), len(tracker.Active()))
	}
	if fe := failLog.Slowest(); len(fe) != 1 || !strings.Contains(fe[0].Err, "too many samples") || fe[0].Plan != "" {
		t.Fatalf("failed query entry = %+v, want its error and no plan", fe)
	}

	// A vet-rejected query takes no slot and writes no slow-log entry.
	seen = nil
	if _, err := small.Execute(ctx, `sum({instance="a"})`, at); !errors.Is(err, ErrRejected) {
		t.Fatalf("got %v, want a rejection", err)
	}
	if len(seen) != 0 || len(tracker.Active()) != 0 || len(failLog.Slowest()) != 1 {
		t.Errorf("vet-rejected query: %d slots seen, %d held, %d slow-log entries; want 0, 0 and 1", len(seen), len(tracker.Active()), len(failLog.Slowest()))
	}
}

// TestSamplesLoadedMetric: dio_promql_samples_loaded is observed once per
// evaluation with the samples its QueryStats reports, instant and range,
// and not at all for a query vetting refuses.
func TestSamplesLoadedMetric(t *testing.T) {
	db, at := fixtureDB(t)
	reg := obs.NewRegistry()
	ex := New(db, DefaultLimits())
	ex.Instrument(reg)
	histogram := func() (count, sum float64) {
		for _, fam := range reg.Gather() {
			if fam.Name != "dio_promql_samples_loaded" {
				continue
			}
			for _, s := range fam.Samples {
				switch s.Suffix {
				case "_count":
					count = s.Value
				case "_sum":
					sum = s.Value
				}
			}
		}
		return count, sum
	}
	var wantCount, wantSum float64
	runs := []func(context.Context) error{
		func(ctx context.Context) error { _, err := ex.Execute(ctx, "m_total[1m]", at); return err },
		func(ctx context.Context) error {
			_, err := ex.ExecuteRange(ctx, "sum(rate(m_total[1m]))", at.Add(-3*time.Minute), at, 15*time.Second)
			return err
		},
	}
	for i, run := range runs {
		ctx, capture := promql.WithQueryStats(context.Background())
		if err := run(ctx); err != nil {
			t.Fatal(err)
		}
		qs := capture.Stats()
		if qs == nil || qs.Samples == 0 {
			t.Fatalf("run %d: captured stats %+v, want touched samples", i, qs)
		}
		wantCount++
		wantSum += float64(qs.Samples)
		if count, sum := histogram(); count != wantCount || sum != wantSum {
			t.Errorf("run %d: histogram count %v sum %v, want %v and %v", i, count, sum, wantCount, wantSum)
		}
	}
	if _, err := ex.Execute(context.Background(), `sum({instance="a"})`, at); !errors.Is(err, ErrRejected) {
		t.Fatalf("got %v, want a rejection", err)
	}
	if count, _ := histogram(); count != wantCount {
		t.Errorf("a vet-rejected query was observed: count %v, want %v", count, wantCount)
	}
}
