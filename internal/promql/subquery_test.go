package promql

import (
	"context"
	"math"
	"testing"
	"time"

	"dio/internal/tsdb"
)

func TestParseSubquery(t *testing.T) {
	for _, q := range []string{
		`max_over_time(sum(smf_pdu_session_active)[10m:1m])`,
		`sum(smf_pdu_session_active)[10m:30s]`,
		`avg_over_time((sum(a) / sum(b))[1h:5m])`,
		`sum(x)[10m:1m] offset 5m`,
	} {
		e, err := Parse(q)
		if err != nil {
			t.Errorf("parse %q: %v", q, err)
			continue
		}
		s := e.String()
		if _, err := Parse(s); err != nil {
			t.Errorf("canonical %q of %q does not reparse: %v", s, q, err)
		}
	}
	// Bad subqueries.
	for _, q := range []string{
		`sum(x)[10m:]`,
		`sum(x)[:1m]`,
		`rate(x[5m])[10m:1m][5m:1m] + y[2m]`, // nested garbage with matrix binop
		`"str"[10m:1m]`,
	} {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
}

func TestEvalSubqueryMaxOverTime(t *testing.T) {
	db, end := testDB(t)
	// sum(smf_pdu_session_active) is constant 300 → max over the window
	// is 300.
	got := scalarOf(t, evalQuery(t, db, `max_over_time(sum(smf_pdu_session_active)[10m:1m])`, end))
	if got != 300 {
		t.Errorf("subquery max = %g, want 300", got)
	}
	// count_over_time counts the evaluation steps: 10 for (end-10m, end].
	got = scalarOf(t, evalQuery(t, db, `count_over_time(sum(smf_pdu_session_active)[10m:1m])`, end))
	if got != 10 {
		t.Errorf("subquery count = %g, want 10", got)
	}
}

func TestEvalSubqueryOverComputedRatio(t *testing.T) {
	db, end := testDB(t)
	// A ratio of two constant aggregates is constant; avg over time
	// equals the instant value.
	inst := scalarOf(t, evalQuery(t, db, `sum(smf_pdu_session_active{instance="a"}) / sum(smf_pdu_session_active)`, end))
	avg := scalarOf(t, evalQuery(t, db, `avg_over_time((sum(smf_pdu_session_active{instance="a"}) / sum(smf_pdu_session_active))[5m:1m])`, end))
	if math.Abs(inst-avg) > 1e-9 {
		t.Errorf("subquery avg %g differs from instant %g", avg, inst)
	}
}

func TestEvalSubqueryAsValue(t *testing.T) {
	db, end := testDB(t)
	v := evalQuery(t, db, `sum(smf_pdu_session_active)[5m:1m]`, end)
	m, ok := v.(Matrix)
	if !ok || len(m) != 1 {
		t.Fatalf("subquery value = %T %v", v, v)
	}
	if len(m[0].Samples) != 5 {
		t.Errorf("subquery produced %d points, want 5", len(m[0].Samples))
	}
}

func TestDeriv(t *testing.T) {
	db := tsdb.New()
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	// Gauge rising 3 units per second.
	for i := 0; i <= 60; i++ {
		ls := tsdb.FromMap(map[string]string{"__name__": "g"})
		if err := db.Append(ls, base.Add(time.Duration(i)*time.Second).UnixMilli(), 3*float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	end := base.Add(60 * time.Second)
	got := scalarOf(t, evalQuery(t, db, `deriv(g[1m])`, end))
	if math.Abs(got-3) > 1e-9 {
		t.Errorf("deriv = %g, want 3", got)
	}
}

func TestPredictLinear(t *testing.T) {
	db := tsdb.New()
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	for i := 0; i <= 60; i++ {
		ls := tsdb.FromMap(map[string]string{"__name__": "g"})
		if err := db.Append(ls, base.Add(time.Duration(i)*time.Second).UnixMilli(), float64(100+2*i)); err != nil {
			t.Fatal(err)
		}
	}
	end := base.Add(60 * time.Second)
	// Value now is 220, slope 2/s → in 100s: 420.
	got := scalarOf(t, evalQuery(t, db, `predict_linear(g[1m], 100)`, end))
	if math.Abs(got-420) > 1e-6 {
		t.Errorf("predict_linear = %g, want 420", got)
	}
	// Constant series predicts its own value.
	db2 := tsdb.New()
	for i := 0; i <= 10; i++ {
		ls := tsdb.FromMap(map[string]string{"__name__": "c"})
		if err := db2.Append(ls, base.Add(time.Duration(i)*time.Second).UnixMilli(), 7); err != nil {
			t.Fatal(err)
		}
	}
	got = scalarOf(t, evalQuery(t, db2, `predict_linear(c[1m], 1000)`, base.Add(10*time.Second)))
	if math.Abs(got-7) > 1e-9 {
		t.Errorf("flat predict_linear = %g, want 7", got)
	}
}

func TestSubquerySampleBudget(t *testing.T) {
	db, end := testDB(t)
	eng := NewEngine(db, EngineOptions{LookbackDelta: 5 * time.Minute, MaxSamples: 10})
	_, err := query(context.Background(), eng, `max_over_time(sum(smf_pdu_session_active)[10m:15s])`, end)
	if err == nil {
		t.Fatal("expected sample-budget error from subquery")
	}
}
