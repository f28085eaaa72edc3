package httpapi_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dio/internal/core"
	"dio/internal/feedback"
	"dio/internal/httpapi"
	"dio/internal/llm"
	"dio/internal/servecache"
	"dio/internal/tenant"
	"dio/internal/testenv"
)

// doH is do with request headers.
func doH(t *testing.T, h http.Handler, method, path string, body any, headers map[string]string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(data))
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	out := make(map[string]any)
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: non-JSON response %q", method, path, w.Body.String())
	}
	return w, out
}

// newTenantServer builds the handler with a tenant-keyed front, the given
// gate, and a bearer-token tenant mapping.
func newTenantServer(t *testing.T, gate httpapi.Admitter) http.Handler {
	t.Helper()
	cat, db, r, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := core.New(core.Config{Catalog: cat, TSDB: db, Model: llm.MustNew("gpt-4"), Retriever: r})
	if err != nil {
		t.Fatal(err)
	}
	frontCfg := servecache.FrontConfig[*core.Answer]{
		Size: 64, TenantShare: 16, TTL: time.Hour,
		Version: cat.Version, TenantVersion: cp.TenantVersion, Head: db.HeadTime,
		Compute: cp.Ask,
	}
	tracker := feedback.NewTracker([]string{"alice"}, nil)
	return httpapi.New(cp, tracker, nil,
		httpapi.WithTenantTokens(map[string]string{"s3cret-acme": "ACME"}),
		httpapi.WithServingLayer(servecache.NewFront(frontCfg), gate))
}

// TestAskTenantCacheIsolation pins that the answer cache keys on the
// tenant header: tenants never see each other's cached answers, and
// requests without the header run as the default tenant.
func TestAskTenantCacheIsolation(t *testing.T) {
	h := newTenantServer(t, nil)
	const q = "How many PDU sessions are currently active?"
	ask := func(tenantID, want string) {
		t.Helper()
		hdr := map[string]string{}
		if tenantID != "" {
			hdr[httpapi.TenantHeader] = tenantID
		}
		w, out := doH(t, h, "POST", "/api/v1/ask", map[string]any{"question": q}, hdr)
		if w.Code != 200 {
			t.Fatalf("tenant %q ask = %d %v", tenantID, w.Code, out)
		}
		if got := w.Header().Get(httpapi.CacheHeader); got != want {
			t.Fatalf("tenant %q ask %s = %q, want %q", tenantID, httpapi.CacheHeader, got, want)
		}
	}
	ask("acme", "miss")
	ask("acme", "hit")
	ask("umbrella", "miss") // must not see acme's entry
	ask("umbrella", "hit")
	ask("", "miss") // default tenant has its own slot
	ask("", "hit")
	// Header values are normalized: case and padding collapse to one tenant.
	ask(" ACME ", "hit")
}

// TestAskTenantBearerToken pins the token→tenant mapping: a mapped bearer
// token runs as that (normalized) tenant, sharing its cache slot; the
// explicit header wins over the token.
func TestAskTenantBearerToken(t *testing.T) {
	h := newTenantServer(t, nil)
	const q = "What is the paging success rate?"

	w, _ := doH(t, h, "POST", "/api/v1/ask", map[string]any{"question": q},
		map[string]string{"Authorization": "Bearer s3cret-acme"})
	if got := w.Header().Get(httpapi.CacheHeader); got != "miss" {
		t.Fatalf("token ask = %q, want miss", got)
	}
	// The token mapped to "ACME", normalized "acme" — the header hits it.
	w, _ = doH(t, h, "POST", "/api/v1/ask", map[string]any{"question": q},
		map[string]string{httpapi.TenantHeader: "acme"})
	if got := w.Header().Get(httpapi.CacheHeader); got != "hit" {
		t.Fatalf("header ask after token ask = %q, want hit (token must map to tenant acme)", got)
	}
	// An unmapped token falls back to the default tenant.
	w, _ = doH(t, h, "POST", "/api/v1/ask", map[string]any{"question": q},
		map[string]string{"Authorization": "Bearer bogus"})
	if got := w.Header().Get(httpapi.CacheHeader); got != "miss" {
		t.Fatalf("unmapped-token ask = %q, want miss (default tenant slot)", got)
	}
	// Header beats token.
	w, _ = doH(t, h, "POST", "/api/v1/ask", map[string]any{"question": q},
		map[string]string{"Authorization": "Bearer s3cret-acme", httpapi.TenantHeader: "umbrella"})
	if got := w.Header().Get(httpapi.CacheHeader); got != "miss" {
		t.Fatalf("header+token ask = %q, want miss (explicit header must win)", got)
	}
}

// TestAskQuotaShedRetryAfter pins the satellite fix: a 429 shed for an
// exhausted tenant QPS quota carries a Retry-After derived from the token
// bucket's refill time — rate 0.1 tokens/s and an empty bucket means the
// next token is 10 seconds out — not the old constant "1".
func TestAskQuotaShedRetryAfter(t *testing.T) {
	gate := servecache.NewGate(4, 50*time.Millisecond)
	gate.SetQuota("acme", tenant.Quota{Rate: 0.1, Burst: 1})
	h := newTenantServer(t, gate)
	hdr := map[string]string{httpapi.TenantHeader: "acme"}

	w, out := doH(t, h, "POST", "/api/v1/ask", map[string]any{"question": "How many PDU sessions are currently active?"}, hdr)
	if w.Code != 200 {
		t.Fatalf("first ask = %d %v", w.Code, out)
	}
	// The burst token is spent; the bucket refills at 0.1/s.
	w, out = doH(t, h, "POST", "/api/v1/ask", map[string]any{"question": "What is the paging success rate?"}, hdr)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("quota-exhausted ask = %d %v, want 429", w.Code, out)
	}
	if got := w.Header().Get("Retry-After"); got != "10" {
		t.Fatalf("Retry-After = %q, want \"10\" (1 token / 0.1 tokens per second)", got)
	}
	// Another tenant is unaffected by acme's exhausted quota.
	w, _ = doH(t, h, "POST", "/api/v1/ask", map[string]any{"question": "What is the paging success rate?"},
		map[string]string{httpapi.TenantHeader: "umbrella"})
	if w.Code != 200 {
		t.Fatalf("bystander ask = %d, want 200", w.Code)
	}
}
