package httpapi_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dio/internal/core"
	"dio/internal/feedback"
	"dio/internal/httpapi"
	"dio/internal/ingest"
	"dio/internal/llm"
	"dio/internal/testenv"
	"dio/internal/tsdb"
)

// newWriteServer builds a handler whose TSDB is the durable ingest store,
// exactly as dio-server wires it with -data-dir.
func newWriteServer(t *testing.T) (http.Handler, *ingest.Store) {
	t.Helper()
	cat, _, r, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	st, err := ingest.OpenStore(t.TempDir(), ingest.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	cp, err := core.New(core.Config{Catalog: cat, TSDB: st.DB(), Model: llm.MustNew("gpt-4"), Retriever: r})
	if err != nil {
		t.Fatal(err)
	}
	tracker := feedback.NewTracker([]string{"alice"}, nil)
	return httpapi.New(cp, tracker, nil, httpapi.WithIngest(st)), st
}

// pushResult is the write endpoint's accounting for one push.
type pushResult struct {
	Appended, OutOfOrder, Duplicate int
}

// push posts one batch in the binary codec and decodes the accounting.
func push(t *testing.T, h http.Handler, batch []ingest.TimeSeries) pushResult {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/write", bytes.NewReader(ingest.EncodeBinary(batch)))
	req.Header.Set("Content-Type", ingest.ContentTypeBinary)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("write rejected: %d: %s", rec.Code, rec.Body)
	}
	var res pushResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatalf("bad write response %q: %v", rec.Body, err)
	}
	return res
}

func TestWriteEndpointBinary(t *testing.T) {
	h, st := newWriteServer(t)
	batch := []ingest.TimeSeries{{
		Labels: tsdb.FromMap(map[string]string{"__name__": "dl_throughput_bytes", "ue": "ue01"}),
		Samples: []tsdb.Sample{
			{T: 1000, V: 10}, {T: 16000, V: 20}, {T: 31000, V: 30},
		},
	}}
	res := push(t, h, batch)
	if res.Appended != 3 || res.OutOfOrder != 0 || res.Duplicate != 0 {
		t.Fatalf("push accounting = %+v", res)
	}
	if got := st.DB().NumSamples(); got != 3 {
		t.Fatalf("store holds %d samples, want 3", got)
	}

	// Re-pushing the identical batch: older samples drop as out-of-order;
	// the head sample is an idempotent accept (it is already present with
	// the same value, so acknowledging it again is truthful).
	res = push(t, h, batch)
	if res.Appended != 1 || res.OutOfOrder != 2 || res.Duplicate != 0 {
		t.Fatalf("idempotent re-push accounting = %+v", res)
	}
	if got := st.DB().NumSamples(); got != 3 {
		t.Fatalf("re-push changed the store: %d samples", got)
	}
	conflict := []ingest.TimeSeries{{
		Labels:  batch[0].Labels,
		Samples: []tsdb.Sample{{T: 31000, V: 999}, {T: 46000, V: 40}},
	}}
	res = push(t, h, conflict)
	if res.Appended != 1 || res.Duplicate != 1 {
		t.Fatalf("conflict accounting = %+v", res)
	}
}

func TestWriteEndpointJSON(t *testing.T) {
	h, st := newWriteServer(t)
	body := `{"series":[{"labels":{"__name__":"up","job":"gnb"},"samples":[[1000,1],[16000,0]]}]}`
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/write", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json; charset=utf-8")
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := st.DB().NumSamples(); got != 2 {
		t.Fatalf("store holds %d samples, want 2", got)
	}
}

func TestWriteEndpointRejectsBadPayload(t *testing.T) {
	h, st := newWriteServer(t)
	for name, req := range map[string]*http.Request{
		"garbage binary": httptest.NewRequest(http.MethodPost, "/api/v1/write",
			strings.NewReader("DWR1 this is not a write request")),
		"nameless series": httptest.NewRequest(http.MethodPost, "/api/v1/write",
			strings.NewReader(`{"series":[{"labels":{"job":"x"},"samples":[[1,1]]}]}`)),
		"unknown content type": httptest.NewRequest(http.MethodPost, "/api/v1/write",
			strings.NewReader(`x`)),
	} {
		switch name {
		case "garbage binary":
			req.Header.Set("Content-Type", ingest.ContentTypeBinary)
		case "unknown content type":
			req.Header.Set("Content-Type", "text/plain")
		default:
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, rec.Code)
		}
	}
	if got := st.DB().NumSamples(); got != 0 {
		t.Fatalf("rejected payloads stored %d samples", got)
	}
}
