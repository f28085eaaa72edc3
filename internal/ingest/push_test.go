package ingest

import (
	"fmt"
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
// decode, WAL and TSDB alike.
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
	ceiling("DecodeBinary", 2500, testing.AllocsPerRun(10, func() {
		if _, err := DecodeBinary(raw); err != nil {
			t.Fatal(err)
		}
	}))

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
	ceiling("Store.Append", 200, testing.AllocsPerRun(10, push))
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
		if !got[i].Labels.Equal(want[i].Labels) {
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
