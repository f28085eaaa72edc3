package tsdb

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// populateRandom fills a db with a deterministic multi-series workload
// that crosses several chunk seals.
func populateRandom(t *testing.T, db *DB, seriesN, samplesN int) {
	t.Helper()
	// Integer-valued random walk at a regular interval: the counter/gauge
	// shape operator metrics actually have, which XOR encoding compresses.
	rng := rand.New(rand.NewSource(11))
	for s := 0; s < seriesN; s++ {
		ls := FromMap(map[string]string{"__name__": "m", "instance": string(rune('a' + s))})
		v := 100.0
		for i := 0; i < samplesN; i++ {
			v += float64(rng.Intn(40) - 10)
			if err := db.Append(ls, int64(i)*15000, v); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestAppendDuplicatePolicy(t *testing.T) {
	db := New()
	ls := FromMap(map[string]string{"__name__": "m"})
	if err := db.Append(ls, 1000, 5); err != nil {
		t.Fatal(err)
	}
	// Identical (t, v) re-append is an idempotent no-op — the property WAL
	// replay of a partially acknowledged batch relies on.
	if err := db.Append(ls, 1000, 5); err != nil {
		t.Fatalf("idempotent re-append failed: %v", err)
	}
	if db.NumSamples() != 1 {
		t.Fatalf("samples = %d after idempotent re-append, want 1", db.NumSamples())
	}
	// Same timestamp, different value: rejected, and distinguishable from
	// plain out-of-order while still matching it.
	err := db.Append(ls, 1000, 6)
	if !errors.Is(err, ErrDuplicateTimestamp) || !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("duplicate with different value: %v", err)
	}
	// Strictly older: out-of-order but not a duplicate.
	err = db.Append(ls, 500, 1)
	if !errors.Is(err, ErrOutOfOrder) || errors.Is(err, ErrDuplicateTimestamp) {
		t.Fatalf("out-of-order: %v", err)
	}
	if db.NumSamples() != 1 {
		t.Fatalf("rejected samples were stored: %d", db.NumSamples())
	}
}

// TestAppendSamplesMatchesAppend: the batched by-ref append (AppendSeries,
// and AppendSamples, its one-series form) must enforce exactly the
// per-sample policy of Append, across series and across the lock holds a
// series longer than maxSamplesPerLock straddles, and a second batch by
// the refs the first wrote back must reach the same series.
func TestAppendSamplesMatchesAppend(t *testing.T) {
	ls := FromMap(map[string]string{"__name__": "m"})
	batch := []Sample{
		{T: 1000, V: 1}, {T: 500, V: 9}, {T: 1000, V: 1}, {T: 1000, V: 2},
		{T: 2000, V: 3}, {T: 1500, V: 4}, {T: 3000, V: 5},
	}
	long := FromMap(map[string]string{"__name__": "m", "ue": "long"})
	var longBatch []Sample
	for i := 0; i < 2*maxSamplesPerLock+7; i++ {
		t := int64(10 * i)
		if i%100 == 99 {
			t -= 15 // out of order
		}
		longBatch = append(longBatch, Sample{T: t, V: float64(i % 3)})
	}
	other := FromMap(map[string]string{"__name__": "n"})
	later := []Sample{{T: 4000, V: 6}, {T: 3000, V: 7}, {T: 4000, V: 6}}

	one := New()
	var wantApp, wantOoo, wantDup int
	appendAll := func(ls Labels, samples []Sample) {
		for _, smp := range samples {
			switch err := one.Append(ls, smp.T, smp.V); {
			case err == nil:
				wantApp++
			case errors.Is(err, ErrDuplicateTimestamp):
				wantDup++
			case errors.Is(err, ErrOutOfOrder):
				wantOoo++
			default:
				t.Fatal(err)
			}
		}
	}
	appendAll(ls, batch)
	appendAll(long, longBatch)
	appendAll(other, batch[:2])
	appendAll(ls, later)
	appendAll(other, later)

	batched := New()
	refs := make([]SeriesRef, 3)
	app, ooo, dup, err := batched.AppendSeries([]SeriesAppend{
		{Ref: &refs[0], Labels: ls, Samples: batch},
		{Ref: &refs[1], Labels: long, Samples: longBatch},
		{Ref: &refs[2], Labels: other, Samples: batch[:2]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if refs[0] == 0 || refs[1] == 0 || refs[2] == 0 {
		t.Fatalf("refs not written back: %v", refs)
	}
	// By ref: the labels are not read, so wrong ones must not matter.
	app2, ooo2, dup2, err := batched.AppendSeries([]SeriesAppend{
		{Ref: &refs[0], Labels: other, Samples: later},
		{Ref: &refs[2], Labels: ls, Samples: later},
	})
	if err != nil {
		t.Fatal(err)
	}
	app, ooo, dup = app+app2, ooo+ooo2, dup+dup2
	if app != wantApp || ooo != wantOoo || dup != wantDup {
		t.Fatalf("AppendSeries = %d/%d/%d, Append loop = %d/%d/%d",
			app, ooo, dup, wantApp, wantOoo, wantDup)
	}
	if !reflect.DeepEqual(one.AllSeries(), batched.AllSeries()) {
		t.Fatal("stores diverged")
	}

	single := New()
	app, ooo, dup, err = single.AppendSamples(ls, batch)
	if err != nil {
		t.Fatal(err)
	}
	if app != 4 || ooo != 2 || dup != 1 {
		t.Fatalf("AppendSamples = %d/%d/%d, want 4/2/1", app, ooo, dup)
	}
	if _, _, _, err := single.AppendSamples(Labels{{Name: "job", Value: "x"}}, batch); err == nil {
		t.Fatal("nameless series accepted")
	}
	var ref SeriesRef
	if _, _, _, err := single.AppendSeries([]SeriesAppend{{Ref: &ref, Labels: Labels{{Name: "job", Value: "x"}}, Samples: batch}}); err == nil {
		t.Fatal("nameless series accepted by AppendSeries")
	}
}

// TestChunkSealAcrossCapacity: queries spanning sealed chunks and the open
// head must see every sample exactly once.
func TestChunkSealAcrossCapacity(t *testing.T) {
	db := New()
	ls := FromMap(map[string]string{"__name__": "m"})
	n := 3*chunkCapacity + 17
	for i := 0; i < n; i++ {
		if err := db.Append(ls, int64(i)*1000, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	views := db.SelectSeries([]*Matcher{NameMatcher("m")})
	if len(views) != 1 || len(views[0].Samples) != n {
		t.Fatalf("decoded %d samples, want %d", len(views[0].Samples), n)
	}
	for i, smp := range views[0].Samples {
		if smp.T != int64(i)*1000 || smp.V != float64(i) {
			t.Fatalf("sample %d = %+v", i, smp)
		}
	}
	// A clamped batch that starts inside a sealed chunk and ends in the head.
	res := db.SelectBatch([]SelectHint{{
		Matchers: []*Matcher{NameMatcher("m")},
		MinT:     int64(chunkCapacity+5) * 1000,
		MaxT:     int64(3*chunkCapacity+5) * 1000,
	}})
	DecodeViews(res[0])
	want := 2*chunkCapacity + 1
	if len(res[0]) != 1 || len(res[0][0].Samples) != want {
		t.Fatalf("clamped batch = %d samples, want %d", len(res[0][0].Samples), want)
	}
}

func TestTruncateInsideChunk(t *testing.T) {
	db := New()
	ls := FromMap(map[string]string{"__name__": "m"})
	n := 2*chunkCapacity + 30
	for i := 0; i < n; i++ {
		if err := db.Append(ls, int64(i)*1000, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Cut in the middle of the first sealed chunk.
	cut := int64(chunkCapacity/2) * 1000
	dropped := db.Truncate(cut)
	if dropped != int64(chunkCapacity/2) {
		t.Fatalf("dropped %d, want %d", dropped, chunkCapacity/2)
	}
	rs := db.SelectRange([]*Matcher{NameMatcher("m")}, math.MinInt64+1, math.MaxInt64)
	if len(rs) != 1 {
		t.Fatal("series vanished")
	}
	wantN := n - chunkCapacity/2
	if len(rs[0].Samples) != wantN {
		t.Fatalf("kept %d samples, want %d", len(rs[0].Samples), wantN)
	}
	if rs[0].Samples[0].T != cut {
		t.Fatalf("oldest kept sample at %d, want %d", rs[0].Samples[0].T, cut)
	}
	// The re-encoded series must keep accepting appends.
	if err := db.Append(ls, int64(n)*1000, 1); err != nil {
		t.Fatal(err)
	}
	if got := db.NumSamples(); got != int64(wantN+1) {
		t.Fatalf("NumSamples = %d, want %d", got, wantN+1)
	}
}

func TestStatsCompression(t *testing.T) {
	db := New()
	populateRandom(t, db, 4, 3*chunkCapacity)
	st := db.Stats()
	if st.Series != 4 || st.Samples != int64(4*3*chunkCapacity) {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesPerSample <= 0 || st.CompressionRatio < 5 {
		t.Fatalf("compression ratio %.2fx (%.2f B/sample), want >= 5x", st.CompressionRatio, st.BytesPerSample)
	}
}

// TestChunkedSnapshotRoundTrip: a chunked snapshot restores byte-identical
// query results and is dramatically smaller than the raw samples.
func TestChunkedSnapshotRoundTrip(t *testing.T) {
	db := New()
	populateRandom(t, db, 3, 2*chunkCapacity+13)
	var chunkBuf bytes.Buffer
	if err := db.SnapshotChunked(&chunkBuf); err != nil {
		t.Fatal(err)
	}
	fromChunks, err := LoadChunkedSnapshot(bytes.NewReader(chunkBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(db.AllSeries(), fromChunks.AllSeries()) {
		t.Fatal("chunked snapshot restore differs from the source store")
	}
	if raw := int(db.NumSamples()) * 16; chunkBuf.Len() >= raw/4 {
		t.Errorf("chunked snapshot %dB vs %dB of raw samples: expected >= 4x smaller", chunkBuf.Len(), raw)
	}
	// The restored store keeps accepting appends past the snapshot head.
	ls := fromChunks.AllSeries()[0].Labels
	head := fromChunks.HeadTime()
	if err := fromChunks.Append(ls, head+1000, 7); err != nil {
		t.Fatal(err)
	}
	if err := fromChunks.Append(ls, head, 999); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("restored store lost its ordering state: %v", err)
	}
}

func TestChunkedSnapshotRejectsCorruption(t *testing.T) {
	db := New()
	populateRandom(t, db, 2, chunkCapacity+7)
	var buf bytes.Buffer
	if err := db.SnapshotChunked(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Truncations at every prefix must fail loudly, never load partially.
	for cut := 0; cut < len(full); cut += 101 {
		if _, err := LoadChunkedSnapshot(bytes.NewReader(full[:cut])); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("truncated at %d/%d: err = %v", cut, len(full), err)
		}
	}
	// A flipped byte anywhere fails the CRC.
	for _, off := range []int{len(chunkedMagic) + 3, len(full) / 2, len(full) - 6} {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x40
		if _, err := LoadChunkedSnapshot(bytes.NewReader(mut)); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("flipped byte %d: err = %v", off, err)
		}
	}
}
