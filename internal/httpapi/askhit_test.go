package httpapi

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dio/internal/core"
	"dio/internal/llm"
	"dio/internal/obs"
	"dio/internal/servecache"
	"dio/internal/testenv"
)

// TestAskHitAllocations pins what one answer-cache hit allocates through
// ServeHTTP on dio-server's wiring: metrics, request tracing, the answer
// front, the admission gate and a request log line. A hit writes the bytes
// its answer encoded once and parses a short ask body without json.Decoder:
// 29 allocations, where re-encoding the answer by reflection and decoding
// the body with json.Decoder took 46.
func TestAskHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	cat, db, r, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cp, err := core.New(core.Config{Catalog: cat, TSDB: db, Model: llm.MustNew("gpt-4"), Retriever: r, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	cp.Tracer().EnableCapture(obs.NewTraceStore(256, time.Second), 1)
	front := servecache.NewFront(servecache.FrontConfig[*core.Answer]{
		Size: 64, TTL: time.Hour, Version: cp.Version, Head: db.HeadTime, Compute: cp.Ask})
	front.Instrument(reg)
	gate := servecache.NewGate(4, time.Second)
	gate.Instrument(reg)
	srv := New(cp, nil, slog.New(slog.NewTextHandler(io.Discard, nil)), WithMetrics(reg),
		WithTracing(cp.Tracer()), WithServingLayer(front, gate))

	body := []byte(`{"question":"How many PDU sessions are currently active?"}`)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", "/api/v1/ask", rd)
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		rd.Reset(body)
		clear(w.h)
		srv.ServeHTTP(w, req)
	}
	serve() // the miss
	serve()
	if got := w.h.Get(CacheHeader); got != "hit" || w.n < 500 {
		t.Fatalf("second ask: cache %q, %d-byte body; want a hit", got, w.n)
	}
	n := testing.AllocsPerRun(100, serve)
	t.Logf("%.0f allocations per hit", n)
	if n > 32 {
		t.Errorf("an ask hit allocates %.0f times, ceiling 32", n)
	}
}
