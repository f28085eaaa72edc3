package httpapi_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"runtime"
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

// newWriteServer builds a handler whose TSDB is the durable ingest store in
// dir, exactly as dio-server wires it with -data-dir.
func newWriteServer(t *testing.T, dir string) (http.Handler, *ingest.Store) {
	t.Helper()
	cat, _, r, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	st, err := ingest.OpenStore(dir, ingest.StoreOptions{})
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
	h, st := newWriteServer(t, t.TempDir())
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
	h, st := newWriteServer(t, t.TempDir())
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

// TestWriteEndpointRejectsBadPayload: a push that does not decode, or that
// holds a series with invalid labels, is a 400 and lands nothing, live or
// after a restart. That holds for binary pushes whose bad series is new,
// even after series the server already holds, and for a held series sent
// with a non-minimal varint, which would otherwise be a second key for it.
func TestWriteEndpointRejectsBadPayload(t *testing.T) {
	dir := t.TempDir()
	h, st := newWriteServer(t, dir)
	held := ingest.TimeSeries{
		Labels:  tsdb.FromMap(map[string]string{"__name__": "up", "job": "x"}),
		Samples: []tsdb.Sample{{T: 1000, V: 1}},
	}
	push(t, h, []ingest.TimeSeries{held})
	later := ingest.TimeSeries{Labels: held.Labels, Samples: []tsdb.Sample{{T: 2000, V: 2}}}
	bad := func(ls ...tsdb.Label) ingest.TimeSeries { return ingest.TimeSeries{Labels: ls, Samples: later.Samples} }
	encode := func(batch ...ingest.TimeSeries) string { return string(ingest.EncodeBinary(batch)) }
	// The held series at t=2000 with its first label length (offset 6,
	// after the magic and the series and label counts) as 0x88 0x00.
	raw := ingest.EncodeBinary([]ingest.TimeSeries{later})
	nonMinimal := append(append(raw[:6:6], 0x88, 0x00), raw[7:len(raw)-4]...)
	nonMinimal = binary.BigEndian.AppendUint32(nonMinimal, crc32.ChecksumIEEE(nonMinimal[4:]))
	unsorted := bad(tsdb.Label{Name: "job", Value: "x"}, tsdb.Label{Name: "__name__", Value: "m"})
	const dwr1 = ingest.ContentTypeBinary
	for name, c := range map[string]struct{ contentType, body string }{
		"garbage binary":         {dwr1, "DWR1 this is not a write request"},
		"nameless series":        {"application/json", `{"series":[{"labels":{"job":"x"},"samples":[[1,1]]}]}`},
		"unknown content type":   {"text/plain", "x"},
		"binary unsorted labels": {dwr1, encode(unsorted)},
		"binary repeated label": {dwr1, encode(bad(tsdb.Label{Name: "__name__", Value: "m"},
			tsdb.Label{Name: "a", Value: "1"}, tsdb.Label{Name: "a", Value: "2"}))},
		"binary no metric name":                   {dwr1, encode(bad(tsdb.Label{Name: "job", Value: "x"}))},
		"binary non-minimal varint, held series":  {dwr1, string(nonMinimal)},
		"binary held series before a bad new one": {dwr1, encode(later, unsorted)},
	} {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/write", strings.NewReader(c.body))
		req.Header.Set("Content-Type", c.contentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, rec.Code, rec.Body)
		}
	}
	if got := st.DB().NumSamples(); got != 1 {
		t.Fatalf("after the rejected pushes the store holds %d samples, want the 1 pushed before them", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := ingest.OpenStore(dir, ingest.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.DB().NumSamples(); got != 1 {
		t.Fatalf("the reopened store holds %d samples, want 1: a rejected push was logged", got)
	}
}

// TestWriteEndpointRefusesUnknownJSONKeys: a JSON push with a misspelled
// key, at the top or inside a series, is a 400 that names the key, and
// nothing is stored, live or after a restart. The top-level misspelling
// used to decode as an empty push and answer 200 with appended 0.
func TestWriteEndpointRefusesUnknownJSONKeys(t *testing.T) {
	dir := t.TempDir()
	h, st := newWriteServer(t, dir)
	for key, body := range map[string]string{
		"timeseries": `{"timeseries":[{"labels":{"__name__":"up","job":"gnb"},"samples":[[1000,1]]}]}`,
		"sample":     `{"series":[{"labels":{"__name__":"up","job":"gnb"},"samples":[[1000,1]],"sample":[[2000,2]]}]}`,
	} {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/write", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `unknown field \"`+key+`\"`) {
			t.Errorf("%s: status %d %s, want 400 naming the key", key, rec.Code, rec.Body)
		}
	}
	if got := st.DB().NumSamples(); got != 0 {
		t.Fatalf("the store holds %d samples after refused pushes, want 0", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := ingest.OpenStore(dir, ingest.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.DB().NumSamples(); got != 0 {
		t.Fatalf("the reopened store holds %d samples, want 0: a refused push was logged", got)
	}
}

// TestWriteBodyNotSizedByHeader: a push that declares the full 64 MiB
// Content-Length but sends only a few bytes is refused without the server
// allocating anything near the declared size.
func TestWriteBodyNotSizedByHeader(t *testing.T) {
	h, _ := newWriteServer(t, t.TempDir())
	req := httptest.NewRequest(http.MethodPost, "/api/v1/write", strings.NewReader("DWR1"))
	req.Header.Set("Content-Type", ingest.ContentTypeBinary)
	req.ContentLength = 64 << 20
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status %d, want 400: %s", rec.Code, rec.Body)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("allocated %d bytes for a 4-byte body, want < %d", got, 1<<20)
	}
}
