package ingest

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dio/internal/obs"
	"dio/internal/tsdb"
)

// scrapeBatches builds a deterministic realistic workload (integer-valued
// walks, 15s interval) as a sequence of write batches, and the flat
// reference TSDB they should produce.
func scrapeBatches(seriesN, batchN, perBatch int) ([][]TimeSeries, *tsdb.DB) {
	rng := rand.New(rand.NewSource(42))
	labels := make([]tsdb.Labels, seriesN)
	vals := make([]float64, seriesN)
	for s := range labels {
		labels[s] = tsdb.FromMap(map[string]string{
			"__name__": "dl_throughput_bytes", "ue": fmt.Sprintf("ue%02d", s),
		})
		vals[s] = float64(1000 + s)
	}
	ref := tsdb.New()
	var batches [][]TimeSeries
	t0 := int64(1_700_000_000_000)
	for b := 0; b < batchN; b++ {
		batch := make([]TimeSeries, 0, seriesN)
		for s := range labels {
			ts := TimeSeries{Labels: labels[s]}
			for i := 0; i < perBatch; i++ {
				vals[s] += float64(rng.Intn(64))
				at := t0 + int64(b*perBatch+i)*15000
				ts.Samples = append(ts.Samples, tsdb.Sample{T: at, V: vals[s]})
				if err := ref.Append(labels[s], at, vals[s]); err != nil {
					panic(err)
				}
			}
			batch = append(batch, ts)
		}
		batches = append(batches, batch)
	}
	return batches, ref
}

// identicalStores fails unless both stores answer queries byte-identically.
func identicalStores(t *testing.T, got, want tsdb.Storage) {
	t.Helper()
	if !reflect.DeepEqual(got.AllSeries(), want.AllSeries()) {
		t.Fatalf("recovered store differs: %d/%d series, %d/%d samples",
			got.NumSeries(), want.NumSeries(), got.NumSamples(), want.NumSamples())
	}
}

func TestStoreAppendAndRecover(t *testing.T) {
	dir := t.TempDir()
	batches, ref := scrapeBatches(4, 6, 10)
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		as, err := st.Append(b)
		if err != nil {
			t.Fatal(err)
		}
		if as.OutOfOrder != 0 || as.Duplicate != 0 {
			t.Fatalf("unexpected drops: %+v", as)
		}
	}
	identicalStores(t, st.DB(), ref)

	// Simulated crash: no Close, no checkpoint — recovery must rebuild the
	// exact acknowledged state from the WAL alone.
	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	identicalStores(t, re.DB(), ref)
	if rs := re.ReplayStats(); rs.Samples != ref.NumSamples() {
		t.Fatalf("replayed %d samples, want %d", rs.Samples, ref.NumSamples())
	}
	st.Close()
}

func TestStoreRecoverAcrossSegmentsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rotations mid-run.
	batches, ref := scrapeBatches(3, 8, 12)
	st, err := OpenStore(dir, StoreOptions{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		if _, err := st.Append(b); err != nil {
			t.Fatal(err)
		}
		if i == len(batches)/2 {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Crash (no Close). Recovery = checkpoint + replay of later segments.
	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	identicalStores(t, re.DB(), ref)
	// The checkpoint's replay starts mid-log, so fewer samples than total.
	if rs := re.ReplayStats(); rs.Samples >= ref.NumSamples() || rs.Samples == 0 {
		t.Fatalf("replayed %d samples, want a strict mid-log subset of %d", rs.Samples, ref.NumSamples())
	}
	st.Close()
}

func TestStoreCheckpointGarbageCollects(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	batches, _ := scrapeBatches(2, 6, 10)
	for _, b := range batches {
		if _, err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	cur := st.wal.currentSegment()
	for _, s := range segs {
		if s < cur {
			t.Fatalf("segment %d survived checkpointing (current %d)", s, cur)
		}
	}
	cps, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 {
		t.Fatalf("checkpoints on disk: %v, want exactly one", cps)
	}
	st.Close()
}

func TestStoreTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	batches, ref := scrapeBatches(2, 3, 8)
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	seg := st.wal.currentSegment()
	st.Close()
	// A crash tore the last record in half.
	f, err := os.OpenFile(filepath.Join(dir, "wal", segmentName(seg)), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rs := re.ReplayStats(); !rs.TailTruncated {
		t.Fatalf("torn tail not repaired: %+v", rs)
	}
	identicalStores(t, re.DB(), ref)
}

func TestStoreFsyncFailureRefusesAck(t *testing.T) {
	dir := t.TempDir()
	batches, _ := scrapeBatches(2, 2, 6)
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(batches[0]); err != nil {
		t.Fatal(err)
	}
	acked := tsdb.New()
	for _, ts := range batches[0] {
		for _, s := range ts.Samples {
			if err := acked.Append(ts.Labels, s.T, s.V); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The disk starts failing fsyncs: the append must report failure (the
	// client cannot assume durability) and the WAL must stay failed rather
	// than silently acknowledge later writes.
	restore := SetDiskFaults(DiskFaults{Sync: func(*os.File) error { return errors.New("injected fsync failure") }})
	if _, err := st.Append(batches[1]); err == nil {
		t.Fatal("append acknowledged despite fsync failure")
	}
	if _, err := st.Append(batches[1]); err == nil {
		t.Fatal("append acknowledged on a failed WAL")
	}
	restore()
	st.Close()

	// Recovery must include every acknowledged sample. The unacknowledged
	// batch may or may not be present (it reached the OS before the sync
	// failed) — the guarantee is no *acknowledged* loss.
	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, want := range acked.AllSeries() {
		rs := re.DB().SelectRange([]*tsdb.Matcher{tsdb.NameMatcher(want.Labels.Name())}, want.Samples[0].T-1, want.Samples[len(want.Samples)-1].T)
		found := false
		for _, got := range rs {
			if got.Labels.Equal(want.Labels) {
				found = true
				if len(got.Samples) < len(want.Samples) {
					t.Fatalf("series %s lost acknowledged samples: %d < %d", want.Labels, len(got.Samples), len(want.Samples))
				}
				for i, s := range want.Samples {
					if got.Samples[i] != s {
						t.Fatalf("series %s sample %d = %+v, want %+v", want.Labels, i, got.Samples[i], s)
					}
				}
			}
		}
		if !found {
			t.Fatalf("acknowledged series %s missing after recovery", want.Labels)
		}
	}
}

func TestStoreTruncatePersists(t *testing.T) {
	dir := t.TempDir()
	batches, ref := scrapeBatches(2, 4, 10)
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	minT, maxT, _ := ref.TimeRange()
	cut := (minT + maxT) / 2
	dropped, err := st.Truncate(cut)
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Fatal("nothing truncated")
	}
	ref.Truncate(cut)
	identicalStores(t, st.DB(), ref)
	st.Close()

	// A restart must not resurrect truncated samples from the WAL.
	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	identicalStores(t, re.DB(), ref)
}

func TestStoreDropPolicyAndMetrics(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := obs.NewRegistry()
	st.Instrument(reg)
	ls := tsdb.FromMap(map[string]string{"__name__": "m"})
	as, err := st.Append([]TimeSeries{{Labels: ls, Samples: []tsdb.Sample{{T: 1000, V: 1}, {T: 2000, V: 2}}}})
	if err != nil || as.Appended != 2 {
		t.Fatalf("append = %+v, %v", as, err)
	}
	as, err = st.Append([]TimeSeries{{Labels: ls, Samples: []tsdb.Sample{{T: 500, V: 9}, {T: 2000, V: 99}, {T: 3000, V: 3}}}})
	if err != nil {
		t.Fatal(err)
	}
	if as.Appended != 1 || as.OutOfOrder != 1 || as.Duplicate != 1 {
		t.Fatalf("drop accounting = %+v", as)
	}
	var ooo, dup float64
	for _, fam := range reg.Gather() {
		switch fam.Name {
		case "dio_ingest_out_of_order_total":
			ooo = fam.Samples[0].Value
		case "dio_ingest_duplicate_total":
			dup = fam.Samples[0].Value
		}
	}
	if ooo != 1 || dup != 1 {
		t.Fatalf("metrics ooo=%v dup=%v, want 1/1", ooo, dup)
	}
}

func TestStoreGroupCommitWithInterval(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{FsyncInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Each goroutine writes its own series so the concurrent batches are
	// order-independent; the reference store gets the same data serially.
	ref := tsdb.New()
	var batches [][]TimeSeries
	for g := 0; g < 8; g++ {
		ls := tsdb.FromMap(map[string]string{"__name__": "m", "writer": fmt.Sprintf("w%d", g)})
		ts := TimeSeries{Labels: ls}
		for i := 0; i < 20; i++ {
			s := tsdb.Sample{T: int64(i) * 1000, V: float64(g*100 + i)}
			ts.Samples = append(ts.Samples, s)
			if err := ref.Append(ls, s.T, s.V); err != nil {
				t.Fatal(err)
			}
		}
		batches = append(batches, []TimeSeries{ts})
	}
	done := make(chan error, len(batches))
	for _, b := range batches {
		go func(b []TimeSeries) {
			_, err := st.Append(b)
			done <- err
		}(b)
	}
	for range batches {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	identicalStores(t, st.DB(), ref)
	st.Close()
	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	identicalStores(t, re.DB(), ref)
}
