package tsdb

import (
	"bytes"
	"testing"
)

func populatedDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	for _, inst := range []string{"a", "b"} {
		for i := 0; i < 10; i++ {
			ls := FromMap(map[string]string{"__name__": "m", "instance": inst})
			if err := db.Append(ls, int64(i*1000), float64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 5; i++ {
		ls := FromMap(map[string]string{"__name__": "g"})
		if err := db.Append(ls, int64(i*1000), 1); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := populatedDB(t)
	var buf bytes.Buffer
	if err := db.SnapshotChunked(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := LoadChunkedSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if db2.NumSeries() != db.NumSeries() || db2.NumSamples() != db.NumSamples() {
		t.Fatalf("loaded %d series / %d samples, want %d / %d",
			db2.NumSeries(), db2.NumSamples(), db.NumSeries(), db.NumSamples())
	}
	min1, max1, _ := db.TimeRange()
	min2, max2, _ := db2.TimeRange()
	if min1 != min2 || max1 != max2 {
		t.Fatalf("time range %d..%d vs %d..%d", min1, max1, min2, max2)
	}
	// Queries behave identically.
	a := db.Select([]*Matcher{NameMatcher("m")}, 9000, 5000)
	b := db2.Select([]*Matcher{NameMatcher("m")}, 9000, 5000)
	if len(a) != len(b) || a[0].Sample != b[0].Sample {
		t.Fatalf("select differs: %+v vs %+v", a, b)
	}
	// Appending continues after load.
	ls := FromMap(map[string]string{"__name__": "m", "instance": "a"})
	if err := db2.Append(ls, 100000, 42); err != nil {
		t.Fatalf("append after load: %v", err)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	db := populatedDB(t)
	var a, b bytes.Buffer
	if err := db.SnapshotChunked(&a); err != nil {
		t.Fatal(err)
	}
	if err := db.SnapshotChunked(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshots of the same store differ")
	}
}

func TestTruncateRetention(t *testing.T) {
	db := populatedDB(t)
	before := db.NumSamples()
	dropped := db.Truncate(5000)
	if dropped == 0 {
		t.Fatal("nothing dropped")
	}
	if db.NumSamples() != before-dropped {
		t.Fatalf("samples = %d, want %d", db.NumSamples(), before-dropped)
	}
	minT, _, ok := db.TimeRange()
	if !ok || minT < 5000 {
		t.Fatalf("minT = %d after truncation", minT)
	}
	// The g series (samples at 0..4000) disappears entirely.
	if db.HasMetric("g") {
		t.Fatal("fully-truncated series still present")
	}
	if db.HasMetric("m") != true {
		t.Fatal("surviving series lost")
	}
	// Appends older than the new head of a surviving series still fail;
	// fresh appends work.
	ls := FromMap(map[string]string{"__name__": "m", "instance": "a"})
	if err := db.Append(ls, 20000, 1); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
}

func TestTruncateEverything(t *testing.T) {
	db := populatedDB(t)
	db.Truncate(1 << 60)
	if db.NumSamples() != 0 || db.NumSeries() != 0 {
		t.Fatalf("store not empty: %d series %d samples", db.NumSeries(), db.NumSamples())
	}
	if _, _, ok := db.TimeRange(); ok {
		t.Fatal("empty store reports a time range")
	}
	// The store remains usable.
	ls := FromMap(map[string]string{"__name__": "fresh"})
	if err := db.Append(ls, 1, 1); err != nil {
		t.Fatal(err)
	}
}

func TestTruncateNoop(t *testing.T) {
	db := populatedDB(t)
	before := db.NumSamples()
	if dropped := db.Truncate(0); dropped != 0 {
		t.Fatalf("dropped %d from a no-op truncation", dropped)
	}
	if db.NumSamples() != before {
		t.Fatal("sample count changed")
	}
}
