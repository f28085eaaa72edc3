package tsdb

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestFromMapSortsAndDropsEmpty(t *testing.T) {
	ls := FromMap(map[string]string{"b": "2", "a": "1", "empty": "", "__name__": "m"})
	if len(ls) != 3 {
		t.Fatalf("got %d labels, want 3: %v", len(ls), ls)
	}
	for i := 1; i < len(ls); i++ {
		if ls[i-1].Name >= ls[i].Name {
			t.Fatalf("labels not sorted: %v", ls)
		}
	}
	if ls.Name() != "m" || ls.Get("a") != "1" || ls.Get("missing") != "" {
		t.Errorf("accessors wrong: %v", ls)
	}
}

func TestLabelsString(t *testing.T) {
	ls := FromMap(map[string]string{"__name__": "up", "job": "amf", "instance": "pod-0"})
	want := `up{instance="pod-0",job="amf"}`
	if got := ls.String(); got != want {
		t.Errorf("String() = %s, want %s", got, want)
	}
	if got := (Labels{}).String(); got != "{}" {
		t.Errorf("empty labels String() = %q", got)
	}
}

// MustMatcher is NewMatcher that panics on error.
func MustMatcher(t MatchType, name, value string) *Matcher {
	m, err := NewMatcher(t, name, value)
	if err != nil {
		panic(err)
	}
	return m
}

func TestLabelsWithoutKeepWith(t *testing.T) {
	ls := FromMap(map[string]string{"__name__": "m", "a": "1", "b": "2"})
	if got := ls.Without("__name__"); got.Get("__name__") != "" || got.Get("a") != "1" {
		t.Errorf("Without failed: %v", got)
	}
	if got := ls.Keep("a"); len(got) != 1 || got.Get("a") != "1" {
		t.Errorf("Keep failed: %v", got)
	}
	if got := ls.With("c", "3"); got.Get("c") != "3" || len(got) != 4 {
		t.Errorf("With failed: %v", got)
	}
	// Original unmodified.
	if ls.Get("c") != "" {
		t.Error("With mutated the receiver")
	}
}

func TestLabelsKeyUniqueness(t *testing.T) {
	a := FromMap(map[string]string{"x": "1", "y": "2"})
	b := FromMap(map[string]string{"x": "1y", "y2": "2"}) // adversarial concat
	if a.Key() == b.Key() {
		t.Error("different label sets share a key")
	}
	f := func(k1, v1, k2, v2 string) bool {
		l1 := FromMap(map[string]string{k1: v1})
		l2 := FromMap(map[string]string{k2: v2})
		if slices.Equal(l1, l2) {
			return l1.Key() == l2.Key()
		}
		return l1.Key() != l2.Key() || (len(l1) == 0 && len(l2) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestLabelsAppendKeyAndClone: AppendKey writes exactly Key's bytes, and
// the copy carved from a key equals the original label set.
func TestLabelsAppendKeyAndClone(t *testing.T) {
	f := func(k1, v1, k2, v2 string) bool {
		ls := FromMap(map[string]string{MetricNameLabel: "m", k1: v1, k2: v2})
		key := ls.Key()
		return string(ls.AppendKey([]byte("prefix"))) == "prefix"+key && slices.Equal(ls.cloneFromKey(key), ls)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMatchers(t *testing.T) {
	eq := MustMatcher(MatchEqual, "a", "x")
	ne := MustMatcher(MatchNotEqual, "a", "x")
	re := MustMatcher(MatchRegexp, "a", "x|y")
	nre := MustMatcher(MatchNotRegexp, "a", "x.*")
	cases := []struct {
		m    *Matcher
		v    string
		want bool
	}{
		{eq, "x", true}, {eq, "y", false},
		{ne, "x", false}, {ne, "y", true},
		{re, "x", true}, {re, "y", true}, {re, "z", false},
		{re, "xx", false}, // anchored
		{nre, "xa", false}, {nre, "b", true},
	}
	for _, c := range cases {
		if got := c.m.Matches(c.v); got != c.want {
			t.Errorf("%s against %q = %v, want %v", c.m, c.v, got, c.want)
		}
	}
	if _, err := NewMatcher(MatchRegexp, "a", "("); err == nil {
		t.Error("expected error for bad regexp")
	}
}

func TestMatchLabelsAbsentLabel(t *testing.T) {
	ls := FromMap(map[string]string{"__name__": "m"})
	// != on an absent label sees "", so it matches.
	if !MatchLabels(ls, []*Matcher{MustMatcher(MatchNotEqual, "job", "amf")}) {
		t.Error("!= on absent label should match")
	}
	if MatchLabels(ls, []*Matcher{MustMatcher(MatchEqual, "job", "amf")}) {
		t.Error("= on absent label should not match")
	}
}

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	for i := 0; i < 10; i++ {
		ls := FromMap(map[string]string{"__name__": "m", "instance": "a"})
		if err := db.Append(ls, int64(i*1000), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestAppendAndCounts(t *testing.T) {
	db := newTestDB(t)
	if db.NumSeries() != 1 || db.NumSamples() != 10 {
		t.Fatalf("series=%d samples=%d", db.NumSeries(), db.NumSamples())
	}
	minT, maxT, ok := db.TimeRange()
	if !ok || minT != 0 || maxT != 9000 {
		t.Fatalf("time range = %d..%d ok=%v", minT, maxT, ok)
	}
}

func TestAppendRequiresName(t *testing.T) {
	db := New()
	if err := db.Append(FromMap(map[string]string{"a": "b"}), 0, 1); err == nil {
		t.Fatal("expected error for nameless series")
	}
}

func TestAppendOutOfOrder(t *testing.T) {
	db := newTestDB(t)
	ls := FromMap(map[string]string{"__name__": "m", "instance": "a"})
	err := db.Append(ls, 500, 1)
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("expected ErrOutOfOrder, got %v", err)
	}
	// Same timestamp is also rejected.
	if err := db.Append(ls, 9000, 1); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("expected ErrOutOfOrder for duplicate ts, got %v", err)
	}
}

func TestSelectLookback(t *testing.T) {
	db := newTestDB(t)
	ms := []*Matcher{NameMatcher("m")}
	// At t=9500 with 1s lookback, the newest sample (9000) qualifies.
	pts := db.Select(ms, 9500, 1000)
	if len(pts) != 1 || pts[0].Sample.V != 9 {
		t.Fatalf("select = %+v", pts)
	}
	// At t=20000 with 5s lookback, the sample is stale.
	if pts := db.Select(ms, 20000, 5000); len(pts) != 0 {
		t.Fatalf("stale select = %+v", pts)
	}
	// Exactly at a sample's timestamp the sample is visible.
	pts = db.Select(ms, 5000, 1)
	if len(pts) != 1 || pts[0].Sample.V != 5 {
		t.Fatalf("exact-ts select = %+v", pts)
	}
}

func TestSelectRangeBoundaries(t *testing.T) {
	db := newTestDB(t)
	ms := []*Matcher{NameMatcher("m")}
	// (2000, 5000] → samples at 3000, 4000, 5000.
	rs := db.SelectRange(ms, 2000, 5000)
	if len(rs) != 1 || len(rs[0].Samples) != 3 {
		t.Fatalf("range = %+v", rs)
	}
	if rs[0].Samples[0].T != 3000 || rs[0].Samples[2].T != 5000 {
		t.Fatalf("window bounds wrong: %+v", rs[0].Samples)
	}
	// Empty window omits the series entirely.
	if rs := db.SelectRange(ms, 100000, 200000); len(rs) != 0 {
		t.Fatalf("empty window returned %+v", rs)
	}
}

func TestSelectRangeCopies(t *testing.T) {
	db := newTestDB(t)
	rs := db.SelectRange([]*Matcher{NameMatcher("m")}, 0, 10000)
	rs[0].Samples[0].V = 999
	rs2 := db.SelectRange([]*Matcher{NameMatcher("m")}, 0, 10000)
	if rs2[0].Samples[0].V == 999 {
		t.Fatal("SelectRange leaked internal storage")
	}
}

func TestMetricNamesAndLabelValues(t *testing.T) {
	db := New()
	for _, inst := range []string{"b", "a"} {
		ls := FromMap(map[string]string{"__name__": "x", "instance": inst})
		if err := db.Append(ls, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Append(FromMap(map[string]string{"__name__": "y"}), 1, 1); err != nil {
		t.Fatal(err)
	}
	names := labelValues(db, MetricNameLabel)
	if len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Fatalf("names = %v", names)
	}
	vals := labelValues(db, "instance")
	if len(vals) != 2 || vals[0] != "a" {
		t.Fatalf("label values = %v", vals)
	}
	if !hasMetric(db, "x") || hasMetric(db, "zzz") {
		t.Error("hasMetric wrong")
	}
}

// labelValues returns the sorted values the postings index holds for a
// label name.
func labelValues(db *DB, name string) []string {
	var vals []string
	for v := range db.index[name] {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	return vals
}

// hasMetric reports whether the postings index lists a series of the
// metric.
func hasMetric(db *DB, name string) bool { return len(db.index.get(MetricNameLabel, name)) > 0 }

func TestSelectWithLabelMatcher(t *testing.T) {
	db := New()
	for _, inst := range []string{"a", "b"} {
		ls := FromMap(map[string]string{"__name__": "m", "instance": inst})
		if err := db.Append(ls, 1000, 1); err != nil {
			t.Fatal(err)
		}
	}
	pts := db.Select([]*Matcher{NameMatcher("m"), MustMatcher(MatchEqual, "instance", "b")}, 1000, 1000)
	if len(pts) != 1 || pts[0].Labels.Get("instance") != "b" {
		t.Fatalf("filtered select = %+v", pts)
	}
	// Regexp matcher without name scans everything and still works.
	pts = db.Select([]*Matcher{MustMatcher(MatchRegexp, "instance", "a|b")}, 1000, 1000)
	if len(pts) != 2 {
		t.Fatalf("regex select = %+v", pts)
	}
}

func TestConcurrentAppendsAndReads(t *testing.T) {
	db := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ls := FromMap(map[string]string{"__name__": "m", "instance": fmt.Sprintf("i%d", g)})
			for i := 0; i < 100; i++ {
				if err := db.Append(ls, int64(i), float64(i)); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					db.Select([]*Matcher{NameMatcher("m")}, int64(i), 1000)
				}
			}
		}(g)
	}
	wg.Wait()
	if db.NumSamples() != 800 {
		t.Fatalf("samples = %d, want 800", db.NumSamples())
	}
}

func TestAllSeriesSnapshot(t *testing.T) {
	db := newTestDB(t)
	all := db.AllSeries()
	if len(all) != 1 || len(all[0].Samples) != 10 {
		t.Fatalf("AllSeries = %+v", all)
	}
	all[0].Samples[0].V = -1
	if db.AllSeries()[0].Samples[0].V == -1 {
		t.Fatal("AllSeries leaked internal storage")
	}
}

func TestMetricTimeRange(t *testing.T) {
	db := New()
	app := func(name, inst string, ts ...int64) {
		for _, x := range ts {
			if err := db.Append(FromMap(map[string]string{MetricNameLabel: name, "instance": inst}), x, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	app("op_metric", "a", 100, 200)
	app("op_metric", "b", 150, 250)
	app("dio_ask_total", "a", 900, 1000)

	if minT, maxT, ok := db.MetricTimeRange("op_metric"); !ok || minT != 100 || maxT != 250 {
		t.Errorf("op_metric range = %d..%d ok=%v, want 100..250", minT, maxT, ok)
	}
	if _, maxT, ok := db.MetricTimeRange("dio_ask_total"); !ok || maxT != 1000 {
		t.Errorf("dio_ask_total maxT = %d ok=%v, want 1000", maxT, ok)
	}
	if _, _, ok := db.MetricTimeRange("absent"); ok {
		t.Error("absent metric reported a time range")
	}
	// The store-wide range spans both timelines.
	if minT, maxT, ok := db.TimeRange(); !ok || minT != 100 || maxT != 1000 {
		t.Errorf("TimeRange = %d..%d ok=%v", minT, maxT, ok)
	}
}

func TestPostingsIndexSelection(t *testing.T) {
	db := New()
	app := func(name, inst, zone string) {
		ls := FromMap(map[string]string{"__name__": name, "instance": inst, "zone": zone})
		if err := db.Append(ls, 1000, 1); err != nil {
			t.Fatal(err)
		}
	}
	app("m", "a", "east")
	app("m", "b", "west")
	app("n", "a", "east")
	app("n", "c", "west")

	// A non-__name__ equality matcher is served from the inverted index.
	pts := db.Select([]*Matcher{MustMatcher(MatchEqual, "instance", "a")}, 1000, 1000)
	if len(pts) != 2 {
		t.Fatalf("instance=a select = %+v", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i-1].Labels.Key() >= pts[i].Labels.Key() {
			t.Fatalf("results not in fingerprint order: %+v", pts)
		}
	}
	// Equality on an absent value matches nothing.
	if pts := db.Select([]*Matcher{MustMatcher(MatchEqual, "zone", "north")}, 1000, 1000); len(pts) != 0 {
		t.Fatalf("absent value select = %+v", pts)
	}
	// An empty-value equality matcher means "label absent" and must not
	// consult the index: every series here has a zone, so none match.
	if pts := db.Select([]*Matcher{NameMatcher("m"), MustMatcher(MatchEqual, "zone", "")}, 1000, 1000); len(pts) != 0 {
		t.Fatalf("empty-value select = %+v", pts)
	}
}

func TestLabelValuesAfterTruncate(t *testing.T) {
	db := New()
	old := FromMap(map[string]string{"__name__": "m", "instance": "old"})
	live := FromMap(map[string]string{"__name__": "m", "instance": "live"})
	if err := db.Append(old, 1000, 1); err != nil {
		t.Fatal(err)
	}
	for _, ts := range []int64{1000, 5000} {
		if err := db.Append(live, ts, 1); err != nil {
			t.Fatal(err)
		}
	}
	db.Truncate(2000)
	if vals := labelValues(db, "instance"); len(vals) != 1 || vals[0] != "live" {
		t.Fatalf("label values after truncate = %v", vals)
	}
	if !hasMetric(db, "m") {
		t.Fatal("metric vanished")
	}
	// Drop the last series of the metric: every posting list, and every
	// label name left without one, must go too.
	db.Truncate(10000)
	if len(db.index) != 0 {
		t.Fatalf("stale index entries after full truncate: %v", db.index)
	}
}

func TestSelectSeriesViews(t *testing.T) {
	db := newTestDB(t)
	ls := FromMap(map[string]string{"__name__": "m", "instance": "b"})
	if err := db.Append(ls, 500, 42); err != nil {
		t.Fatal(err)
	}
	views := db.SelectSeries([]*Matcher{NameMatcher("m")})
	if len(views) != 2 {
		t.Fatalf("views = %+v", views)
	}
	for i := 1; i < len(views); i++ {
		if views[i-1].Fingerprint >= views[i].Fingerprint {
			t.Fatal("views not in fingerprint order")
		}
	}
	for _, v := range views {
		if v.Fingerprint != v.Labels.Key() {
			t.Fatalf("fingerprint %q != key %q", v.Fingerprint, v.Labels.Key())
		}
	}
	// Views are stable prefixes: appending afterwards must not change what
	// an existing view sees.
	v := views[1] // instance=b, one sample
	n := len(v.Samples)
	if err := db.Append(ls, 600, 43); err != nil {
		t.Fatal(err)
	}
	if len(v.Samples) != n || v.Samples[n-1].V != 42 {
		t.Fatalf("view changed under append: %+v", v.Samples)
	}
	// A fresh view sees the new sample.
	views = db.SelectSeries([]*Matcher{NameMatcher("m"), MustMatcher(MatchEqual, "instance", "b")})
	if len(views) != 1 || len(views[0].Samples) != 2 {
		t.Fatalf("fresh view = %+v", views)
	}
}

func TestSeriesFingerprintCached(t *testing.T) {
	db := newTestDB(t)
	views := db.SelectSeries([]*Matcher{NameMatcher("m")})
	if len(views) != 1 {
		t.Fatal("missing series")
	}
	if views[0].Fingerprint == "" || views[0].Fingerprint != views[0].Labels.Key() {
		t.Fatalf("fingerprint = %q", views[0].Fingerprint)
	}
}

// TestSelectBatch: one batched call resolves several hinted selections,
// each clamped, fingerprint-ordered, and independent of the others.
func TestSelectBatch(t *testing.T) {
	db := New()
	for _, inst := range []string{"a", "b"} {
		ls := FromMap(map[string]string{"__name__": "m", "instance": inst})
		for i := 0; i < 10; i++ {
			if err := db.Append(ls, int64(i*1000), float64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Append(FromMap(map[string]string{"__name__": "other"}), 1000, 7); err != nil {
		t.Fatal(err)
	}

	res := db.SelectBatch([]SelectHint{
		NoClamp([]*Matcher{NameMatcher("m")}),
		{Matchers: []*Matcher{NameMatcher("m")}, MinT: 2000, MaxT: 5000},
		NoClamp([]*Matcher{NameMatcher("missing")}),
		{Matchers: []*Matcher{NameMatcher("m")}, MinT: 50000, MaxT: 60000},
	})
	if len(res) != 4 {
		t.Fatalf("results = %d, want 4", len(res))
	}
	for _, views := range res {
		DecodeViews(views)
	}

	// Unclamped: both series, all samples, fingerprint order.
	if len(res[0]) != 2 {
		t.Fatalf("unclamped views = %+v", res[0])
	}
	for i, v := range res[0] {
		if len(v.Samples) != 10 {
			t.Errorf("unclamped samples = %d, want 10", len(v.Samples))
		}
		if i > 0 && res[0][i-1].Fingerprint >= v.Fingerprint {
			t.Error("views not in fingerprint order")
		}
	}

	// Clamp is inclusive on both ends: 2000..5000 keeps 4 samples.
	for _, v := range res[1] {
		if len(v.Samples) != 4 || v.Samples[0].T != 2000 || v.Samples[3].T != 5000 {
			t.Fatalf("clamped samples = %+v", v.Samples)
		}
	}

	// No matching series: empty, not nil-panicking.
	if len(res[2]) != 0 {
		t.Fatalf("missing-metric views = %+v", res[2])
	}

	// Clamp past the data: series still listed, with zero samples.
	if len(res[3]) != 2 {
		t.Fatalf("past-end views = %+v", res[3])
	}
	for _, v := range res[3] {
		if len(v.Samples) != 0 {
			t.Fatalf("past-end samples = %+v", v.Samples)
		}
	}

	// Empty batch.
	if out := db.SelectBatch(nil); len(out) != 0 {
		t.Fatalf("empty batch = %+v", out)
	}
}

// TestSelectBatchMatchesSelectSeries: for any matcher set, an unclamped
// batch entry must equal the single SelectSeries result.
func TestSelectBatchMatchesSelectSeries(t *testing.T) {
	db := newTestDB(t)
	ms := []*Matcher{NameMatcher("m")}
	batch := db.SelectBatch([]SelectHint{NoClamp(ms)})[0]
	DecodeViews(batch)
	single := db.SelectSeries(ms)
	if len(batch) != len(single) {
		t.Fatalf("batch=%d single=%d", len(batch), len(single))
	}
	for i := range batch {
		if batch[i].Fingerprint != single[i].Fingerprint || !slices.Equal(batch[i].Samples, single[i].Samples) {
			t.Fatalf("batch[%d] differs: %+v vs %+v", i, batch[i], single[i])
		}
	}
}
