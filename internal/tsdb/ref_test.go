package tsdb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func refLabels(name, inst string) Labels {
	return FromMap(map[string]string{MetricNameLabel: name, "instance": inst})
}

// TestSeriesRefNeverReused drops a series by retention and checks that its
// ref is never handed out again: a series created afterwards, and the same
// labels re-created, both get fresh refs, and appending through the stale
// ref re-resolves from its labels instead of writing into another series.
func TestSeriesRefNeverReused(t *testing.T) {
	db := New()
	old, keep := refLabels("m", "old"), refLabels("m", "keep")
	var oldRef, keepRef SeriesRef
	if err := db.AppendRef(&oldRef, old, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.AppendRef(&keepRef, keep, 100, 1); err != nil {
		t.Fatal(err)
	}
	if oldRef == 0 || keepRef == 0 || oldRef == keepRef {
		t.Fatalf("refs %d and %d, want two distinct nonzero refs", oldRef, keepRef)
	}
	if dropped := db.Truncate(50); dropped != 1 {
		t.Fatalf("Truncate dropped %d samples, want 1", dropped)
	}

	var newRef SeriesRef
	if err := db.AppendRef(&newRef, refLabels("m", "new"), 200, 2); err != nil {
		t.Fatal(err)
	}
	stale := oldRef
	if err := db.AppendRef(&stale, old, 300, 3); err != nil {
		t.Fatal(err)
	}
	seen := map[SeriesRef]string{oldRef: "dropped", keepRef: "keep"}
	for ref, what := range map[SeriesRef]string{newRef: "new series", stale: "re-created series"} {
		if prev, dup := seen[ref]; dup {
			t.Fatalf("%s got ref %d, already the %s series' ref", what, ref, prev)
		}
		seen[ref] = what
	}
	want := []SeriesRange{
		{Labels: refLabels("m", "keep"), Samples: []Sample{{100, 1}}},
		{Labels: refLabels("m", "new"), Samples: []Sample{{200, 2}}},
		{Labels: refLabels("m", "old"), Samples: []Sample{{300, 3}}},
	}
	if got := db.AllSeries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("store = %v, want %v", got, want)
	}
}

// TestChunkedSnapshotLoadAssignsRefs checks that a loaded store gives every
// series its own ref, which then addresses that series alone.
func TestChunkedSnapshotLoadAssignsRefs(t *testing.T) {
	var buf bytes.Buffer
	if err := populatedDB(t).SnapshotChunked(&buf); err != nil {
		t.Fatal(err)
	}
	db, err := LoadChunkedSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.byRef) != db.NumSeries()+1 {
		t.Fatalf("%d ref slots for %d series, want one each plus the zero slot", len(db.byRef), db.NumSeries())
	}
	before := db.AllSeries()
	seen := make(map[SeriesRef]bool)
	for i, sr := range before {
		var ref SeriesRef
		if err := db.AppendRef(&ref, sr.Labels, 100_000, float64(i)); err != nil {
			t.Fatal(err)
		}
		if ref == 0 || seen[ref] {
			t.Fatalf("series %s resolved to ref %d (zero or already taken)", sr.Labels, ref)
		}
		seen[ref] = true
		// By ref alone: the labels passed are not read.
		if err := db.AppendRef(&ref, nil, 200_000, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, sr := range db.AllSeries() {
		got := sr.Samples[len(sr.Samples)-2:]
		if want := []Sample{{100_000, float64(i)}, {200_000, float64(i)}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("series %s ends %v, want %v", sr.Labels, got, want)
		}
	}
}

// TestAppendByRefMatchesLabels runs one random workload — out-of-order
// samples, duplicates, identical re-appends and retention included —
// through Append on one store and through AppendRef and AppendScrape with
// cached refs on another. Every error and the final stores must agree.
func TestAppendByRefMatchesLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	byLabels, byRef := New(), New()
	const nSeries = 40
	labels := make([]Labels, nSeries)
	for i := range labels {
		labels[i] = refLabels(fmt.Sprintf("m%d", i%7), fmt.Sprintf("i%d", i))
	}
	refs := make([]SeriesRef, nSeries)
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	for step := 0; step < 3000; step++ {
		if step%500 == 499 {
			// Drops most series whole, so cached refs go stale.
			keepAfter := int64(step - 20)
			if a, b := byLabels.Truncate(keepAfter), byRef.Truncate(keepAfter); a != b {
				t.Fatalf("step %d: Truncate dropped %d by labels, %d by ref", step, a, b)
			}
		}
		i := rng.Intn(nSeries)
		tm := int64(step - rng.Intn(4)) // sometimes older than the head
		v := float64(rng.Intn(3))       // often equal to the head's value
		want := byLabels.Append(labels[i], tm, v)
		var got error
		if rng.Intn(2) == 0 {
			got = byRef.AppendRef(&refs[i], labels[i], tm, v)
		} else {
			got = byRef.AppendScrape(refs[i:i+1], labels[i:i+1], tm, []float64{v})
		}
		if errText(got) != errText(want) {
			t.Fatalf("step %d: by ref %q, by labels %q", step, errText(got), errText(want))
		}
	}
	if got, want := byRef.AllSeries(), byLabels.AllSeries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stores differ: %d series by ref, %d by labels", len(got), len(want))
	}
	if byRef.NumSamples() != byLabels.NumSamples() {
		t.Fatalf("%d samples by ref, %d by labels", byRef.NumSamples(), byLabels.NumSamples())
	}
}

// TestAppendScrapeStopsAtFirstError checks that a batch stops at its first
// rejected sample with Append's error text, keeping the samples before it
// and storing none after it.
func TestAppendScrapeStopsAtFirstError(t *testing.T) {
	db := New()
	ls := []Labels{refLabels("m", "a"), refLabels("m", "b"), refLabels("m", "c")}
	refs := make([]SeriesRef, len(ls))
	if err := db.AppendScrape(refs[1:2], ls[1:2], 10, []float64{1}); err != nil {
		t.Fatal(err)
	}
	wantErr := New()
	if err := wantErr.Append(ls[1], 10, 1); err != nil {
		t.Fatal(err)
	}
	want := wantErr.Append(ls[1], 5, 2)

	err := db.AppendScrape(refs, ls, 5, []float64{2, 2, 2})
	if !errors.Is(err, ErrOutOfOrder) || err.Error() != want.Error() {
		t.Fatalf("AppendScrape error %v, want %v", err, want)
	}
	wantStore := []SeriesRange{
		{Labels: ls[0], Samples: []Sample{{5, 2}}},
		{Labels: ls[1], Samples: []Sample{{10, 1}}},
	}
	if got := db.AllSeries(); !reflect.DeepEqual(got, wantStore) {
		t.Fatalf("store = %v, want %v", got, wantStore)
	}
	if refs[2] != 0 {
		t.Fatalf("the series after the failure was resolved to ref %d", refs[2])
	}
}
