package httpapi_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dio/internal/core"
	"dio/internal/feedback"
	"dio/internal/httpapi"
	"dio/internal/llm"
	"dio/internal/servecache"
	"dio/internal/testenv"
)

// newServingServer builds the handler with the answer-cache front (and an
// optional compute hook for gate tests) over the shared fixture.
func newServingServer(t *testing.T, gate httpapi.Admitter, hook func()) http.Handler {
	t.Helper()
	cat, db, r, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := core.New(core.Config{Catalog: cat, TSDB: db, Model: llm.MustNew("gpt-4"), Retriever: r})
	if err != nil {
		t.Fatal(err)
	}
	front := servecache.NewFront(servecache.FrontConfig[*core.Answer]{
		Size: 64, TTL: time.Hour,
		Version: cat.Version, Head: db.HeadTime,
		Compute: func(ctx context.Context, q string) (*core.Answer, error) {
			if hook != nil {
				hook()
			}
			return cp.Ask(ctx, q)
		},
	})
	tracker := feedback.NewTracker([]string{"alice"}, nil)
	return httpapi.New(cp, tracker, nil, httpapi.WithServingLayer(front, gate))
}

func TestAskCacheHeader(t *testing.T) {
	h := newServingServer(t, nil, nil)
	const q = "How many PDU sessions are currently active?"

	w, out := do(t, h, "POST", "/api/v1/ask", map[string]any{"question": q})
	if w.Code != 200 {
		t.Fatalf("ask = %d %v", w.Code, out)
	}
	if got := w.Header().Get(httpapi.CacheHeader); got != "miss" {
		t.Fatalf("first ask %s = %q, want miss", httpapi.CacheHeader, got)
	}
	firstAnswer := out["answer"]

	w, out = do(t, h, "POST", "/api/v1/ask", map[string]any{"question": q})
	if got := w.Header().Get(httpapi.CacheHeader); got != "hit" {
		t.Fatalf("repeat ask %s = %q, want hit", httpapi.CacheHeader, got)
	}
	if out["answer"] != firstAnswer {
		t.Fatalf("cached answer %v differs from first %v", out["answer"], firstAnswer)
	}

	// Normalized variants of the same question share the entry.
	w, _ = do(t, h, "POST", "/api/v1/ask", map[string]any{"question": "  how many PDU sessions are currently ACTIVE"})
	if got := w.Header().Get(httpapi.CacheHeader); got != "hit" {
		t.Fatalf("normalized ask %s = %q, want hit", httpapi.CacheHeader, got)
	}

	// nocache bypasses even with a warm entry, and does not disturb it.
	w, _ = do(t, h, "POST", "/api/v1/ask", map[string]any{"question": q, "nocache": true})
	if got := w.Header().Get(httpapi.CacheHeader); got != "bypass" {
		t.Fatalf("nocache ask %s = %q, want bypass", httpapi.CacheHeader, got)
	}
	w, _ = do(t, h, "POST", "/api/v1/ask", map[string]any{"question": q})
	if got := w.Header().Get(httpapi.CacheHeader); got != "hit" {
		t.Fatalf("ask after nocache %s = %q, want hit", httpapi.CacheHeader, got)
	}

	// explain implies bypass: its trace must come from a live pipeline run.
	w, _ = do(t, h, "POST", "/api/v1/ask", map[string]any{"question": q, "explain": true})
	if got := w.Header().Get(httpapi.CacheHeader); got != "bypass" {
		t.Fatalf("explain ask %s = %q, want bypass", httpapi.CacheHeader, got)
	}
}

func TestAskWithoutServingLayerReportsBypass(t *testing.T) {
	h := newServer(t)
	w, _ := do(t, h, "POST", "/api/v1/ask", map[string]any{"question": "How many PDU sessions are currently active?"})
	if got := w.Header().Get(httpapi.CacheHeader); got != "bypass" {
		t.Fatalf("%s = %q, want bypass when no cache is attached", httpapi.CacheHeader, got)
	}
}

// TestAskOverloadSheds fills the single admission slot with a blocked
// computation and expects the queued request to shed with 429 and the
// 30 ms queue-wait rounded up to a one-second Retry-After.
func TestAskOverloadSheds(t *testing.T) {
	hold := make(chan struct{})
	entered := make(chan struct{}, 4)
	h := newServingServer(t, servecache.NewGate(1, 30*time.Millisecond), func() {
		entered <- struct{}{}
		<-hold
	})

	type result struct {
		code  int
		cache string
	}
	first := make(chan result, 1)
	go func() {
		w, _ := do(t, h, "POST", "/api/v1/ask", map[string]any{"question": "How many PDU sessions are currently active?"})
		first <- result{w.Code, w.Header().Get(httpapi.CacheHeader)}
	}()
	<-entered // the slot is now held inside the pipeline

	w, out := do(t, h, "POST", "/api/v1/ask", map[string]any{"question": "What is the paging success rate?"})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("queued ask = %d %v, want 429", w.Code, out)
	}
	if got := w.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}

	close(hold)
	r := <-first
	if r.code != 200 {
		t.Fatalf("held ask = %d, want 200", r.code)
	}
	if r.cache != "miss" {
		t.Fatalf("held ask cache = %q, want miss", r.cache)
	}

	// With the slot free again, requests are admitted normally.
	w, _ = do(t, h, "POST", "/api/v1/ask", map[string]any{"question": "How many PDU sessions are currently active?"})
	if w.Code != 200 {
		t.Fatalf("post-release ask = %d, want 200", w.Code)
	}
}

// evaluatingTargets are the GET routes that evaluate PromQL, each with a
// query the sandbox accepts.
var evaluatingTargets = []string{
	"/api/v1/query?query=" + queryEscape("sum(smfsm_pdu_sessions_active)"),
	"/api/v1/query_range?query=" + queryEscape("sum(smfsm_pdu_sessions_active)") + "&step=5m",
	"/debug/plan?analyze=true&query=" + queryEscape("sum(smfsm_pdu_sessions_active)"),
}

// TestEvaluationRoutesShed holds the only slot of the admission gate: a
// query, a range query and an analyzed plan each shed with 429 and a
// one-second Retry-After, like an ask. A plain plan evaluates nothing and
// needs no slot. Once the slot is free each evaluating route answers.
func TestEvaluationRoutesShed(t *testing.T) {
	gate := servecache.NewGate(1, 30*time.Millisecond)
	h := newServingServer(t, gate, nil)
	release, err := gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range evaluatingTargets {
		w, out := do(t, h, "GET", target, nil)
		if w.Code != http.StatusTooManyRequests {
			t.Errorf("GET %s with the slot held = %d %v, want 429", target, w.Code, out)
		}
		if got := w.Header().Get("Retry-After"); got != "1" {
			t.Errorf("GET %s: Retry-After = %q, want \"1\"", target, got)
		}
	}
	if w, out := do(t, h, "GET", "/debug/plan?query="+queryEscape("sum(smfsm_pdu_sessions_active)"), nil); w.Code != http.StatusOK {
		t.Errorf("plain plan with the slot held = %d %v, want 200", w.Code, out)
	}
	release()
	for _, target := range evaluatingTargets {
		if w, out := do(t, h, "GET", target, nil); w.Code != http.StatusOK {
			t.Errorf("GET %s with the slot free = %d %v, want 200", target, w.Code, out)
		}
	}
}

// TestQueryRangeThroughOneSlotGate: a range query holds one admission slot
// for its whole step loop and takes no other, so it completes through a
// one-slot gate.
func TestQueryRangeThroughOneSlotGate(t *testing.T) {
	h := newServingServer(t, servecache.NewGate(1, time.Minute), nil)
	done := make(chan int, 1)
	go func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", evaluatingTargets[1], nil))
		done <- w.Code
	}()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("query_range through a one-slot gate = %d, want 200", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query_range through a one-slot gate did not complete")
	}
}
