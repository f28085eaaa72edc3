package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"dio/internal/tsdb"
)

// pushBatch builds a push shaped like the write_read workload's: n series
// of four labels spread over 40 gNBs, one sample each at t.
func pushBatch(n int, t int64) []TimeSeries {
	batch := make([]TimeSeries, n)
	for i := range batch {
		batch[i] = TimeSeries{
			Labels: tsdb.Labels{
				{Name: tsdb.MetricNameLabel, Value: "bench_dl_bytes_total"},
				{Name: "instance", Value: fmt.Sprintf("gnb-%02d", i%40)},
				{Name: "job", Value: "bench"},
				{Name: "ue", Value: fmt.Sprintf("ue-%04d", i)},
			},
			Samples: []tsdb.Sample{{T: t, V: float64(i)}},
		}
	}
	return batch
}

// TestPushAllocations pins the steady-state allocations of one 2 000-series
// push, once every series exists: per-series allocation is gone from
// decode, WAL and TSDB alike. DecodeBinary makes 4: the request slice and
// one arena each for label sets, label bytes and samples; its ceiling
// leaves room for each arena to be replaced once by a larger series.
// Store.Append makes none: its ceiling of 2 leaves room for one scratch
// slice regrown. The served path, Store.Push of a binary body, builds no
// label set and makes at most one allocation (the body's reader) and 4 KB.
func TestPushAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	batch := pushBatch(2000, 1000)
	raw := EncodeBinary(batch)
	ceiling := func(name string, limit, n float64) {
		t.Logf("%s: %.0f allocations per push", name, n)
		if n > limit {
			t.Errorf("%s allocates %.0f times per push, ceiling %.0f", name, n, limit)
		}
	}
	ceiling("DecodeBinary", 8, testing.AllocsPerRun(10, func() {
		if _, err := DecodeBinary(raw); err != nil {
			t.Fatal(err)
		}
	}))
	// Reading the body reuses a buffer: a push costs what decoding it
	// costs, plus less than a quarter of the body (io.ReadAll's doubling
	// cost about twice the body).
	decoded := bytesPerPush(func() {
		if _, err := DecodeBinary(raw); err != nil {
			t.Fatal(err)
		}
	})
	read := bytesPerPush(func() {
		if _, err := DecodeWriteRequest(bytes.NewReader(raw), ContentTypeBinary); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("DecodeWriteRequest: %.0f bytes per push, DecodeBinary %.0f, body %d", read, decoded, len(raw))
	if limit := decoded + float64(len(raw))/4; read > limit {
		t.Errorf("DecodeWriteRequest allocates %.0f bytes per push, ceiling %.0f", read, limit)
	}

	w, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	log := func() {
		if _, err := w.Log(batch); err != nil {
			t.Fatal(err)
		}
	}
	log() // the first push assigns refs and writes the series records
	ceiling("WAL.Log", 2, testing.AllocsPerRun(10, log))

	st, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stamp := int64(1000)
	push := func() {
		stamp += 1000
		for i := range batch {
			batch[i].Samples[0].T = stamp
		}
		if _, err := st.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	push()
	ceiling("Store.Append", 2, testing.AllocsPerRun(10, push))

	var bodies [][]byte // one per push AllocsPerRun and bytesPerPush make
	for range 1 + 10 + cap(decoders) + 10 {
		stamp += 1000
		for i := range batch {
			batch[i].Samples[0].T = stamp
		}
		bodies = append(bodies, EncodeBinary(batch))
	}
	served := func() {
		as, err := st.Push(bytes.NewReader(bodies[0]), ContentTypeBinary)
		if err != nil || as.Appended != len(batch) {
			t.Fatalf("served push appended %+v: %v", as, err)
		}
		bodies = bodies[1:]
	}
	ceiling("Store.Push", 1, testing.AllocsPerRun(10, served))
	if n := bytesPerPush(served); n > 4<<10 {
		t.Errorf("Store.Push allocates %.0f bytes per push, ceiling %d", n, 4<<10)
	} else {
		t.Logf("Store.Push: %.0f bytes per push", n)
	}
}

// bytesPerPush is the mean heap allocation of one call of push, after a
// warming call per pooled decoder: the free list hands them out in turn.
func bytesPerPush(push func()) float64 {
	const runs = 10
	for range cap(decoders) {
		push()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		push()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestDecodeWriteRequestKeepsLimitError: a body over the reader's limit
// fails with http.MaxBytesError itself, which the write endpoint answers
// with 413, and the reused buffer serves the next push whole.
func TestDecodeWriteRequestKeepsLimitError(t *testing.T) {
	raw := EncodeBinary(pushBatch(100, 1000))
	body := http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(raw)), int64(len(raw)/2))
	_, err := DecodeWriteRequest(body, ContentTypeBinary)
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) {
		t.Fatalf("error %v, want *http.MaxBytesError", err)
	}
	if _, err := DecodeWriteRequest(bytes.NewReader(raw), ContentTypeBinary); err != nil {
		t.Fatalf("a body within the limit after one over it: %v", err)
	}
}

// TestStoredLabelsOutliveTheRequest: a decoded request's label sets are
// slices of one request-wide string and backing array. The store must
// keep copies, so a caller reusing those buffers cannot change a stored
// series and a stored series does not pin the request.
func TestStoredLabelsOutliveTheRequest(t *testing.T) {
	want := pushBatch(3, 1000)
	raw := EncodeBinary(want)
	batch, err := DecodeBinary(raw)
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Append(batch); err != nil {
		t.Fatal(err)
	}
	requestValue := batch[0].Labels[3].Value
	clear(raw)
	for _, ts := range batch {
		for j := range ts.Labels {
			ts.Labels[j] = tsdb.Label{Name: "reused", Value: "buffer"}
		}
		ts.Samples[0] = tsdb.Sample{}
	}
	got := st.DB().AllSeries()
	if len(got) != len(want) {
		t.Fatalf("store holds %d series, want %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i].Labels, want[i].Labels) {
			t.Fatalf("stored series %d is %s after the request buffers were reused, want %s", i, got[i].Labels, want[i].Labels)
		}
		if got[i].Samples[0] != want[i].Samples[0] {
			t.Fatalf("stored series %d sample = %+v, want %+v", i, got[i].Samples[0], want[i].Samples[0])
		}
	}
	if unsafe.StringData(got[0].Labels[3].Value) == unsafe.StringData(requestValue) {
		t.Fatal("a stored label aliases the decoded request's string")
	}
}
