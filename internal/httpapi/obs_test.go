package httpapi_test

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"dio/internal/core"
	"dio/internal/feedback"
	"dio/internal/httpapi"
	"dio/internal/llm"
	"dio/internal/obs"
	"dio/internal/testenv"
	"dio/internal/tsdb"
)

// newObsServer builds a handler over its own fresh TSDB (so self-scrape
// appends don't mutate the shared fixture), instrumented with reg.
func newObsServer(t *testing.T, reg *obs.Registry, db *tsdb.DB) http.Handler {
	t.Helper()
	cat, _, r, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := core.New(core.Config{
		Catalog: cat, TSDB: db, Model: llm.MustNew("gpt-4"), Retriever: r,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	tracker := feedback.NewTracker([]string{"alice"}, nil)
	return httpapi.New(cp, tracker, nil, httpapi.WithMetrics(reg))
}

// TestRequestLogDurationResolution: the request log line's duration has
// microsecond resolution, so a request faster than a millisecond, as a
// health check is, logs its time and not duration=0s.
func TestRequestLogDurationResolution(t *testing.T) {
	cat, db, r, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := core.New(core.Config{Catalog: cat, TSDB: db, Model: llm.MustNew("gpt-4"), Retriever: r})
	if err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	h := httpapi.New(cp, feedback.NewTracker([]string{"alice"}, nil), slog.New(slog.NewTextHandler(&logs, nil)))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))
	line := logs.String()
	m := regexp.MustCompile(`msg=request .*duration="?([^ "\n]+)`).FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("no request line with a duration in %q", line)
	}
	d, err := time.ParseDuration(m[1])
	if err != nil {
		t.Fatalf("duration %q: %v", m[1], err)
	}
	if d <= 0 || d%time.Microsecond != 0 {
		t.Fatalf("logged duration=%s in %q: want a positive whole number of microseconds", m[1], line)
	}
}

// TestMetricsExposition checks GET /metrics serves Prometheus text with
// the pipeline histogram and the per-route request counters.
func TestMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	h := newObsServer(t, reg, tsdb.New())

	// Generate request traffic so the per-route counters have children:
	// one success and one handler error.
	for _, path := range []string{"/healthz", "/api/v1/query"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", w.Code)
	}
	if got := w.Header().Get("Content-Type"); got != obs.TextContentType {
		t.Errorf("Content-Type = %q, want %q", got, obs.TextContentType)
	}
	body := w.Body.String()
	for _, want := range []string{
		"# TYPE dio_ask_duration_seconds histogram",
		`dio_ask_duration_seconds_bucket{le="+Inf"} 0`,
		"# TYPE dio_http_requests_total counter",
		`dio_http_requests_total{route="GET /healthz",code="200"} 1`,
		`dio_http_requests_total{route="GET /api/v1/query",code="400"} 1`,
		`dio_http_request_duration_seconds_count{route="GET /healthz"} 1`,
		"# TYPE dio_sandbox_queries_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n--- body:\n%s", want, body)
		}
	}
}

// TestMetricsNotEnabled checks the endpoint degrades to 501 without a
// registry.
func TestMetricsNotEnabled(t *testing.T) {
	h := newServer(t) // plain server, no WithMetrics
	w, out := do(t, h, "GET", "/metrics", nil)
	if w.Code != http.StatusNotImplemented {
		t.Fatalf("GET /metrics = %d, want 501", w.Code)
	}
	if out["status"] != "error" {
		t.Errorf("error envelope missing: %v", out)
	}
}

// TestQueryDioSeries is the dogfooding acceptance path: self-scrape the
// registry into the TSDB, then read a dio_* series back over the query
// API without an explicit time parameter (the metric-aware default must
// pick the dio_* timeline, not the frozen operator trace's).
func TestQueryDioSeries(t *testing.T) {
	reg := obs.NewRegistry()
	db := tsdb.New()
	// An unrelated "operator" sample far in the past: the store-wide
	// newest sample must NOT be used for the dio_* query default time.
	if err := db.Append(tsdb.FromMap(map[string]string{"__name__": "op_metric"}), 1000, 1); err != nil {
		t.Fatal(err)
	}
	h := newObsServer(t, reg, db)

	// Traffic, then scrape it into the store.
	for i := 0; i < 3; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	}
	scraper := obs.NewSelfScraper(reg, db, time.Second, nil)
	if appended, failed := scraper.ScrapeOnce(); appended == 0 || failed != 0 {
		t.Fatalf("ScrapeOnce appended %d, failed %d", appended, failed)
	}

	w, out := do(t, h, "GET", "/api/v1/query?query=dio_http_requests_total", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("query = %d: %v", w.Code, out)
	}
	data := out["data"].(map[string]any)
	result := data["result"].([]any)
	if len(result) == 0 {
		t.Fatal("dio_http_requests_total returned no series after self-scrape")
	}
	series := result[0].(map[string]any)
	labels := series["metric"].(map[string]any)
	if labels["job"] != obs.SelfScrapeJobLabel {
		t.Errorf("series job label = %v, want %q", labels["job"], obs.SelfScrapeJobLabel)
	}
}
