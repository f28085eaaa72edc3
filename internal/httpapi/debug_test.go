package httpapi_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dio/internal/core"
	"dio/internal/feedback"
	"dio/internal/httpapi"
	"dio/internal/llm"
	"dio/internal/obs"
	"dio/internal/testenv"
)

// newReq builds a bodyless test request.
func newReq(t *testing.T, method, path string, body any) *http.Request {
	t.Helper()
	if body != nil {
		t.Fatal("newReq is for bodyless requests")
	}
	return httptest.NewRequest(method, path, nil)
}

// doRaw serves one request and returns the raw recorder (no JSON parse).
func doRaw(h http.Handler, req *http.Request) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// newTraceServer builds a handler with request-trace capture enabled on
// the copilot's own tracer, returning the copilot for store access.
func newTraceServer(t *testing.T, capacity int, slow time.Duration) (http.Handler, *core.Copilot) {
	t.Helper()
	cat, db, r, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cp, err := core.New(core.Config{
		Catalog: cat, TSDB: db, Model: llm.MustNew("gpt-4"), Retriever: r,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	cp.Tracer().EnableCapture(obs.NewTraceStore(capacity, slow), 1)
	tracker := feedback.NewTracker([]string{"alice"}, nil)
	h := httpapi.New(cp, tracker, nil, httpapi.WithMetrics(reg), httpapi.WithTracing(cp.Tracer()))
	return h, cp
}

// TestAskExplainTraceTree is the acceptance path: an ask with explain
// enabled returns a trace ID whose /debug/traces/{id} span tree holds the
// five pipeline stages with their stage-specific attributes.
func TestAskExplainTraceTree(t *testing.T) {
	h, _ := newTraceServer(t, 64, time.Second)

	w, out := do(t, h, "POST", "/api/v1/ask",
		map[string]any{"question": "How many PDU sessions are currently active?", "explain": true})
	if w.Code != http.StatusOK {
		t.Fatalf("ask: %d %s", w.Code, w.Body.String())
	}
	id, _ := out["trace_id"].(string)
	if id == "" {
		t.Fatal("ask response carries no trace_id")
	}
	if hdr := w.Header().Get("X-DIO-Trace-ID"); hdr != id {
		t.Errorf("X-DIO-Trace-ID header = %q, want %q", hdr, id)
	}

	w, out = do(t, h, "GET", "/debug/traces/"+id, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("trace fetch: %d %s", w.Code, w.Body.String())
	}
	tree, _ := out["tree"].(map[string]any)
	if tree == nil {
		t.Fatalf("no tree in %v", out)
	}

	// Collect every span and its attrs from the tree.
	type node = map[string]any
	stageAttrs := map[string][]node{}
	var walk func(n node)
	walk = func(n node) {
		name, _ := n["name"].(string)
		attrs, _ := n["attrs"].([]any)
		var as []node
		for _, a := range attrs {
			if m, ok := a.(map[string]any); ok {
				as = append(as, m)
			}
		}
		stageAttrs[name] = append(stageAttrs[name], as...)
		children, _ := n["children"].([]any)
		for _, c := range children {
			if m, ok := c.(map[string]any); ok {
				walk(m)
			}
		}
	}
	walk(tree)

	for _, stage := range []string{"retrieve", "prompt-build", "llm", "sandbox-exec", "dashboard"} {
		if _, ok := stageAttrs[stage]; !ok {
			t.Errorf("stage %q missing from trace tree (stages: %v)", stage, keysOf(stageAttrs))
		}
	}

	hasAttr := func(stage, key string) bool {
		for _, a := range stageAttrs[stage] {
			if a["key"] == key {
				return true
			}
		}
		return false
	}
	if !hasAttr("retrieve", "retrieved.metrics") {
		t.Error("retrieve span lacks retrieved.metrics attr")
	}
	if !hasAttr("llm", "llm.query") {
		t.Error("llm span lacks llm.query attr")
	}
	if !hasAttr("sandbox-exec", "promql.query") || !hasAttr("sandbox-exec", "sandbox.outcome") {
		t.Error("sandbox-exec span lacks promql.query/sandbox.outcome attrs")
	}
	if !hasAttr("sandbox-exec", "promql.samples_loaded") {
		t.Error("sandbox-exec span lacks promql.samples_loaded attr")
	}
	// The executed plan is recorded on the span: what ran, not just what
	// was asked (visible in dio-cli -explain and GET /debug/traces/{id}).
	if !hasAttr("sandbox-exec", "promql.plan") {
		t.Error("sandbox-exec span lacks promql.plan attr")
	}

	// The retrieved.metrics attr carries names with similarity scores.
	for _, a := range stageAttrs["retrieve"] {
		if a["key"] != "retrieved.metrics" {
			continue
		}
		hits, _ := a["value"].([]any)
		if len(hits) == 0 {
			t.Fatal("retrieved.metrics is empty")
		}
		first, _ := hits[0].(map[string]any)
		if _, ok := first["metric"].(string); !ok {
			t.Errorf("retrieved.metrics entry lacks metric name: %v", first)
		}
		if _, ok := first["score"].(float64); !ok {
			t.Errorf("retrieved.metrics entry lacks score: %v", first)
		}
	}
}

func keysOf(m map[string][]map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestErroredTraceSurvivesCheapTraffic is the retention acceptance: an
// errored query's trace stays retrievable after 100 cheap requests wash
// through a small recent ring.
func TestErroredTraceSurvivesCheapTraffic(t *testing.T) {
	h, _ := newTraceServer(t, 8, time.Hour)

	req := newReq(t, "GET", "/api/v1/query?query=sum%28", nil)
	w := doRaw(h, req)
	if w.Code == http.StatusOK {
		t.Fatalf("malformed query unexpectedly succeeded: %s", w.Body.String())
	}
	id := w.Header().Get("X-DIO-Trace-ID")
	if id == "" {
		t.Fatal("errored query response carries no trace header")
	}

	for i := 0; i < 100; i++ {
		if w := doRaw(h, newReq(t, "GET", "/healthz", nil)); w.Code != http.StatusOK {
			t.Fatalf("healthz %d: %d", i, w.Code)
		}
	}

	w, out := do(t, h, "GET", "/debug/traces/"+id, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("errored trace evicted by cheap traffic: %d", w.Code)
	}
	if out["errored"] != true {
		t.Errorf("trace not marked errored: %v", out)
	}

	// It also shows up under the errored filter.
	w, out = do(t, h, "GET", "/debug/traces?filter=errored", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("list: %d", w.Code)
	}
	found := false
	for _, row := range out["traces"].([]any) {
		if m, ok := row.(map[string]any); ok && m["trace_id"] == id {
			found = true
		}
	}
	if !found {
		t.Errorf("trace %s missing from errored listing", id)
	}
}

// TestTraceIDHeaderAdopted: a client-supplied X-DIO-Trace-ID becomes the
// trace's identity.
func TestTraceIDHeaderAdopted(t *testing.T) {
	h, _ := newTraceServer(t, 16, time.Hour)
	req := newReq(t, "GET", "/healthz", nil)
	req.Header.Set("X-DIO-Trace-ID", "client-supplied-7")
	w := doRaw(h, req)
	if got := w.Header().Get("X-DIO-Trace-ID"); got != "client-supplied-7" {
		t.Fatalf("returned trace id = %q, want the adopted one", got)
	}
	if w, _ := do(t, h, "GET", "/debug/traces/client-supplied-7", nil); w.Code != http.StatusOK {
		t.Errorf("adopted trace not retrievable: %d", w.Code)
	}
}

// TestDebugTracesDisabled: without WithTracing the endpoints answer 501.
func TestDebugTracesDisabled(t *testing.T) {
	h := newServer(t)
	if w, _ := do(t, h, "GET", "/debug/traces", nil); w.Code != http.StatusNotImplemented {
		t.Errorf("/debug/traces without tracing = %d, want 501", w.Code)
	}
	if w, _ := do(t, h, "GET", "/debug/traces/xyz", nil); w.Code != http.StatusNotImplemented {
		t.Errorf("/debug/traces/{id} without tracing = %d, want 501", w.Code)
	}
}

// TestDebugTraceUnknownID: an unknown trace ID is a 404.
func TestDebugTraceUnknownID(t *testing.T) {
	h, _ := newTraceServer(t, 8, time.Hour)
	if w, _ := do(t, h, "GET", "/debug/traces/nope", nil); w.Code != http.StatusNotFound {
		t.Errorf("unknown trace = %d, want 404", w.Code)
	}
}

// TestDebugTraceGolden pins the exact /debug/traces/{id} JSON wire shape
// with a deterministic tracer (fixed clock, sequential IDs).
func TestDebugTraceGolden(t *testing.T) {
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

	ctx, root := tr.StartTrace(context.Background(), "POST /api/v1/ask")
	root.SetAttr("question", "q?")
	_, sp := obs.StartSpan(ctx, "retrieve")
	sp.SetAttr("retrieved.count", 2)
	sp.End()
	_, sp = obs.StartSpan(ctx, "llm")
	sp.SetAttr("llm.kind", "select_metrics")
	sp.End()
	root.End()

	h := httpapi.New(cp, feedback.NewTracker([]string{"alice"}, nil), nil, httpapi.WithTracing(tr))
	w := doRaw(h, newReq(t, "GET", "/debug/traces/t01", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("golden fetch: %d %s", w.Code, w.Body.String())
	}

	want := `{"status":"success","trace_id":"t01","name":"POST /api/v1/ask",` +
		`"start":"2026-08-06T12:00:00.001Z","duration_ms":5,"errored":false,"spans":3,` +
		`"tree":{"span_id":"s01","name":"POST /api/v1/ask","start":"2026-08-06T12:00:00.001Z",` +
		`"duration_ms":5,"attrs":[{"key":"question","value":"q?"}],` +
		`"children":[` +
		`{"span_id":"s02","parent_id":"s01","name":"retrieve","start":"2026-08-06T12:00:00.002Z",` +
		`"duration_ms":1,"attrs":[{"key":"retrieved.count","value":2}]},` +
		`{"span_id":"s03","parent_id":"s01","name":"llm","start":"2026-08-06T12:00:00.004Z",` +
		`"duration_ms":1,"attrs":[{"key":"llm.kind","value":"select_metrics"}]}` +
		`]}}` + "\n"
	if got := w.Body.String(); got != want {
		t.Errorf("golden mismatch:\n got: %s\nwant: %s", got, want)
	}
}
