package httpapi_test

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"dio/internal/core"
	"dio/internal/feedback"
	"dio/internal/httpapi"
	"dio/internal/llm"
	"dio/internal/obs"
	"dio/internal/testenv"
)

// newQueryObsServer builds a handler with the slow-query log and the
// active-query tracker wired through the executor's engine hooks — the
// dio-server wiring.
func newQueryObsServer(t *testing.T, threshold time.Duration) (http.Handler, *obs.QueryLog, *obs.ActiveQueryTracker) {
	t.Helper()
	cat, db, r, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := core.New(core.Config{Catalog: cat, TSDB: db, Model: llm.MustNew("gpt-4"), Retriever: r})
	if err != nil {
		t.Fatal(err)
	}
	qlog := obs.NewQueryLog(8, threshold)
	tracker, _, err := obs.NewActiveQueryTracker("", 4)
	if err != nil {
		t.Fatal(err)
	}
	cp.Executor().ObserveQueries(qlog, tracker)
	h := httpapi.New(cp, feedback.NewTracker([]string{"alice"}, nil), nil,
		httpapi.WithQueryObservability(qlog, tracker))
	return h, qlog, tracker
}

// TestDebugQueriesDisabled: without WithQueryObservability both endpoints
// answer 501.
func TestDebugQueriesDisabled(t *testing.T) {
	h := newServer(t)
	for _, path := range []string{"/debug/queries", "/debug/queries/slow"} {
		if w, _ := do(t, h, "GET", path, nil); w.Code != http.StatusNotImplemented {
			t.Errorf("%s without observability = %d, want 501", path, w.Code)
		}
	}
}

// TestDebugQueriesSlow: queries served by the API land in the slow-query
// log and come back through GET /debug/queries/slow with their measured
// totals and, on the plan-based path, a compact analyzed plan.
func TestDebugQueriesSlow(t *testing.T) {
	h, _, _ := newQueryObsServer(t, time.Nanosecond) // everything is slow
	if w, _ := do(t, h, "GET", "/api/v1/query?query=sum%28smf_pdu_session_active%29", nil); w.Code != http.StatusOK {
		t.Fatalf("query: %d", w.Code)
	}

	w, out := do(t, h, "GET", "/debug/queries/slow", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("slow log: %d %s", w.Code, w.Body.String())
	}
	if out["threshold_ms"].(float64) <= 0 {
		t.Errorf("threshold_ms = %v, want > 0", out["threshold_ms"])
	}
	rows, _ := out["slowest"].([]any)
	if len(rows) == 0 {
		t.Fatal("slow-query log is empty after a served query")
	}
	row, _ := rows[0].(map[string]any)
	if row["query"] != "sum(smf_pdu_session_active)" {
		t.Errorf("logged query = %v, want the canonical expression", row["query"])
	}
	if row["kind"] != "instant" {
		t.Errorf("kind = %v, want instant", row["kind"])
	}
	if row["slow"] != true {
		t.Error("entry not marked slow under a 1ns threshold")
	}
	if _, ok := row["duration_ms"].(float64); !ok {
		t.Errorf("duration_ms missing: %v", row)
	}
	if plan, _ := row["plan"].(string); plan == "" {
		t.Error("entry carries no compact analyzed plan")
	}
	if heaviest, _ := out["heaviest"].([]any); len(heaviest) == 0 {
		t.Error("heaviest ring is empty")
	}
}

// TestDebugQueriesActive: with nothing in flight the endpoint reports an
// empty active list and the tracker's slot bound; a registered query shows
// up with its elapsed time.
func TestDebugQueriesActive(t *testing.T) {
	h, _, tracker := newQueryObsServer(t, time.Second)
	w, out := do(t, h, "GET", "/debug/queries", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("active: %d %s", w.Code, w.Body.String())
	}
	if got, _ := out["active"].([]any); len(got) != 0 {
		t.Errorf("idle server reports active queries: %v", got)
	}
	if out["max_slots"].(float64) != 4 {
		t.Errorf("max_slots = %v, want 4", out["max_slots"])
	}

	slot := tracker.Insert("rate(amfcc_n1_auth_request[5m])", "range", "t-42")
	defer tracker.Done(slot)
	_, out = do(t, h, "GET", "/debug/queries", nil)
	rows, _ := out["active"].([]any)
	if len(rows) != 1 {
		t.Fatalf("active = %v, want the registered query", rows)
	}
	row, _ := rows[0].(map[string]any)
	if row["query"] != "rate(amfcc_n1_auth_request[5m])" || row["kind"] != "range" || row["trace_id"] != "t-42" {
		t.Errorf("active row = %v", row)
	}
	if _, ok := row["elapsed_ms"].(float64); !ok {
		t.Errorf("elapsed_ms missing: %v", row)
	}
}

// TestDebugPlanAnalyze: ?analyze=true runs the query and returns the
// annotated plan; a bad analyze value is a 400.
func TestDebugPlanAnalyze(t *testing.T) {
	h := newServer(t)
	if w, _ := do(t, h, "GET", "/debug/plan?query=up&analyze=maybe", nil); w.Code != http.StatusBadRequest {
		t.Errorf("bad analyze value = %d, want 400", w.Code)
	}

	w, out := do(t, h, "GET", "/debug/plan?query=sum%28smf_pdu_session_active%29&analyze=false", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("plain plan: %d %s", w.Code, w.Body.String())
	}
	if out["analyzed"] != false {
		t.Errorf("analyzed = %v, want false", out["analyzed"])
	}

	w, out = do(t, h, "GET", "/debug/plan?query=sum%28smf_pdu_session_active%29&analyze=true", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("analyzed plan: %d %s", w.Code, w.Body.String())
	}
	if out["analyzed"] != true {
		t.Errorf("analyzed = %v, want true", out["analyzed"])
	}
	plan, _ := out["plan"].(string)
	for _, want := range []string{"analyze for: sum(smf_pdu_session_active)", "plan cache", "agg sum"} {
		if !strings.Contains(plan, want) {
			t.Errorf("analyzed plan missing %q:\n%s", want, plan)
		}
	}
}

// TestAskAnalyze: an ask with "analyze": true profiles the generated
// query's sandbox execution and returns its EXPLAIN ANALYZE tree. On a
// fresh server that execution compiles the plan, so it reports a plan
// cache miss; the audit's plan does not compile it first.
func TestAskAnalyze(t *testing.T) {
	h := newServer(t)
	w, out := do(t, h, "POST", "/api/v1/ask",
		map[string]any{"question": "How many PDU sessions are currently active?", "analyze": true})
	if w.Code != http.StatusOK {
		t.Fatalf("ask: %d %s", w.Code, w.Body.String())
	}
	plan, _ := out["analyzed_plan"].(string)
	if !strings.Contains(plan, "analyze for: ") {
		t.Errorf("analyzed_plan = %q, want an EXPLAIN ANALYZE tree", plan)
	}
	if !strings.Contains(plan, "plan cache miss") {
		t.Errorf("first analyzed ask on a fresh server reports no plan cache miss:\n%s", plan)
	}

	// Without the flag the field stays absent.
	_, out = do(t, h, "POST", "/api/v1/ask",
		map[string]any{"question": "How many PDU sessions are currently active?", "no_cache": true})
	if _, ok := out["analyzed_plan"]; ok {
		t.Errorf("analyzed_plan present without analyze: %v", out["analyzed_plan"])
	}
}

// TestDebugTraceListGolden pins the exact GET /debug/traces wire shape —
// newest first, bounded by the default limit — with a deterministic
// tracer.
func TestDebugTraceListGolden(t *testing.T) {
	cat, db, r, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := core.New(core.Config{Catalog: cat, TSDB: db, Model: llm.MustNew("gpt-4"), Retriever: r})
	if err != nil {
		t.Fatal(err)
	}

	t0 := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	n := 0
	tr := obs.NewTracer(obs.NewRegistry(), func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Millisecond)
	})
	ids := 0
	tr.SetIDGenerator(func() string { ids++; return fmt.Sprintf("t%02d", ids) })
	tr.EnableCapture(obs.NewTraceStore(8, time.Second), 1)

	for i := 0; i < 2; i++ {
		_, root := tr.StartTrace(context.Background(), fmt.Sprintf("GET /req/%d", i))
		root.End()
	}

	h := httpapi.New(cp, feedback.NewTracker([]string{"alice"}, nil), nil, httpapi.WithTracing(tr))
	w := doRaw(h, newReq(t, "GET", "/debug/traces", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("list: %d %s", w.Code, w.Body.String())
	}
	want := `{"status":"success","traces":[` +
		`{"trace_id":"t02","name":"GET /req/1","start":"2026-08-06T12:00:00.003Z",` +
		`"duration_ms":1,"errored":false,"slow":false,"spans":1},` +
		`{"trace_id":"t01","name":"GET /req/0","start":"2026-08-06T12:00:00.001Z",` +
		`"duration_ms":1,"errored":false,"slow":false,"spans":1}` +
		`]}` + "\n"
	if got := w.Body.String(); got != want {
		t.Errorf("golden mismatch:\n got: %s\nwant: %s", got, want)
	}

	// ?limit=1 keeps only the newest trace.
	w = doRaw(h, newReq(t, "GET", "/debug/traces?limit=1", nil))
	wantOne := `{"status":"success","traces":[` +
		`{"trace_id":"t02","name":"GET /req/1","start":"2026-08-06T12:00:00.003Z",` +
		`"duration_ms":1,"errored":false,"slow":false,"spans":1}` +
		`]}` + "\n"
	if got := w.Body.String(); got != wantOne {
		t.Errorf("limit=1 golden mismatch:\n got: %s\nwant: %s", got, wantOne)
	}

	if w := doRaw(h, newReq(t, "GET", "/debug/traces?limit=-3", nil)); w.Code != http.StatusBadRequest {
		t.Errorf("negative limit = %d, want 400", w.Code)
	}
}
