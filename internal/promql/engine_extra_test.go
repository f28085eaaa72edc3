package promql

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"dio/internal/tsdb"
)

func TestLabelReplace(t *testing.T) {
	db, end := testDB(t)
	v := evalQuery(t, db, `label_replace(smf_pdu_session_active, "pod", "pod-$1", "instance", "(.*)")`, end)
	vec := v.(Vector)
	if len(vec) != 2 {
		t.Fatalf("got %d series", len(vec))
	}
	for _, s := range vec {
		if s.Labels.Get("pod") != "pod-"+s.Labels.Get("instance") {
			t.Errorf("pod label = %q for instance %q", s.Labels.Get("pod"), s.Labels.Get("instance"))
		}
	}
	// Non-matching pattern leaves labels untouched.
	v = evalQuery(t, db, `label_replace(smf_pdu_session_active, "pod", "$1", "instance", "zzz")`, end)
	for _, s := range v.(Vector) {
		if s.Labels.Get("pod") != "" {
			t.Error("non-matching label_replace added a label")
		}
	}
	// Bad pattern errors.
	eng := NewEngine(db, DefaultEngineOptions())
	if _, err := eng.Query(context.Background(), `label_replace(smf_pdu_session_active, "p", "$1", "instance", "(")`, end); err == nil {
		t.Error("bad pattern accepted")
	}
}

func TestSortFunctions(t *testing.T) {
	db, end := testDB(t)
	asc := evalQuery(t, db, `sort(smf_pdu_session_active)`, end).(Vector)
	if asc[0].V != 100 || asc[1].V != 200 {
		t.Errorf("sort = %v", asc)
	}
	desc := evalQuery(t, db, `sort_desc(smf_pdu_session_active)`, end).(Vector)
	if desc[0].V != 200 || desc[1].V != 100 {
		t.Errorf("sort_desc = %v", desc)
	}
}

func TestChangesAndResets(t *testing.T) {
	db := tsdb.New()
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	vals := []float64{1, 1, 2, 2, 1, 3}
	for i, v := range vals {
		ls := tsdb.FromMap(map[string]string{"__name__": "c"})
		if err := db.Append(ls, base.Add(time.Duration(i)*time.Minute).UnixMilli(), v); err != nil {
			t.Fatal(err)
		}
	}
	end := base.Add(5 * time.Minute)
	if got := scalarOf(t, evalQuery(t, db, `changes(c[10m])`, end)); got != 3 {
		t.Errorf("changes = %g, want 3", got)
	}
	if got := scalarOf(t, evalQuery(t, db, `resets(c[10m])`, end)); got != 1 {
		t.Errorf("resets = %g, want 1", got)
	}
}

func TestIRateAndIDelta(t *testing.T) {
	db := tsdb.New()
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	for i, v := range []float64{10, 20, 50} {
		ls := tsdb.FromMap(map[string]string{"__name__": "c"})
		if err := db.Append(ls, base.Add(time.Duration(i)*30*time.Second).UnixMilli(), v); err != nil {
			t.Fatal(err)
		}
	}
	end := base.Add(time.Minute)
	// Last step: 20 → 50 over 30s → 1/s.
	if got := scalarOf(t, evalQuery(t, db, `irate(c[5m])`, end)); got != 1 {
		t.Errorf("irate = %g, want 1", got)
	}
	if got := scalarOf(t, evalQuery(t, db, `idelta(c[5m])`, end)); got != 30 {
		t.Errorf("idelta = %g, want 30", got)
	}
}

func TestVectorMatchingOnIgnoring(t *testing.T) {
	db := tsdb.New()
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	ts := base.UnixMilli()
	mustAppend(t, db, map[string]string{"__name__": "a", "instance": "x", "role": "r1"}, ts, 10)
	mustAppend(t, db, map[string]string{"__name__": "b", "instance": "x", "role": "r2"}, ts, 5)
	// Full label match fails (role differs) …
	if got := evalQuery(t, db, `a + b`, base).(Vector); len(got) != 0 {
		t.Errorf("full match unexpectedly joined: %v", got)
	}
	// … but on(instance) joins.
	v := evalQuery(t, db, `a + on (instance) b`, base).(Vector)
	if len(v) != 1 || v[0].V != 15 {
		t.Fatalf("on() join = %v", v)
	}
	// ignoring(role) joins too.
	v = evalQuery(t, db, `a - ignoring (role) b`, base).(Vector)
	if len(v) != 1 || v[0].V != 5 {
		t.Fatalf("ignoring() join = %v", v)
	}
}

func TestManyToManyRejected(t *testing.T) {
	db := tsdb.New()
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	ts := base.UnixMilli()
	mustAppend(t, db, map[string]string{"__name__": "a", "instance": "x"}, ts, 1)
	mustAppend(t, db, map[string]string{"__name__": "b", "instance": "x", "extra": "1"}, ts, 1)
	mustAppend(t, db, map[string]string{"__name__": "b", "instance": "x", "extra": "2"}, ts, 2)
	eng := NewEngine(db, DefaultEngineOptions())
	_, err := eng.Query(context.Background(), `a + on (instance) b`, base)
	if err == nil || !strings.Contains(err.Error(), "many-to-many") {
		t.Fatalf("expected many-to-many error, got %v", err)
	}
}

func TestGroupLeftManyToOne(t *testing.T) {
	db := tsdb.New()
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	ts := base.UnixMilli()
	// Per-slice traffic joined against one per-instance capacity value.
	mustAppend(t, db, map[string]string{"__name__": "traffic", "instance": "x", "slice": "s1"}, ts, 30)
	mustAppend(t, db, map[string]string{"__name__": "traffic", "instance": "x", "slice": "s2"}, ts, 70)
	mustAppend(t, db, map[string]string{"__name__": "capacity", "instance": "x", "tier": "gold"}, ts, 100)
	v := evalQuery(t, db, `traffic / on (instance) group_left (tier) capacity`, base).(Vector)
	if len(v) != 2 {
		t.Fatalf("group_left join = %d series, want 2", len(v))
	}
	for _, s := range v {
		want := 0.3
		if s.Labels.Get("slice") == "s2" {
			want = 0.7
		}
		if math.Abs(s.V-want) > 1e-12 {
			t.Errorf("share{slice=%s} = %g, want %g", s.Labels.Get("slice"), s.V, want)
		}
		// The include label is copied from the one side.
		if s.Labels.Get("tier") != "gold" {
			t.Errorf("tier label not copied: %s", s.Labels)
		}
	}
	// group_right mirrors the join.
	v = evalQuery(t, db, `capacity / on (instance) group_right (tier) traffic`, base).(Vector)
	if len(v) != 2 {
		t.Fatalf("group_right join = %d series, want 2", len(v))
	}
	for _, s := range v {
		want := 100.0 / 30
		if s.Labels.Get("slice") == "s2" {
			want = 100.0 / 70
		}
		if math.Abs(s.V-want) > 1e-9 {
			t.Errorf("group_right value = %g, want %g", s.V, want)
		}
	}
}

func TestGroupLeftCanonicalRoundTrip(t *testing.T) {
	q := `traffic / on (instance) group_left (tier) capacity`
	e, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	s := e.String()
	if _, err := Parse(s); err != nil {
		t.Fatalf("canonical %q does not reparse: %v", s, err)
	}
}

func TestGroupModifierRejectedOnSetOps(t *testing.T) {
	if _, err := Parse(`a and on (instance) group_left b`); err == nil {
		t.Fatal("group_left on a set operator accepted")
	}
}

func TestCountValuesAndGroup(t *testing.T) {
	db, end := testDB(t)
	v := evalQuery(t, db, `count_values("level", smf_pdu_session_active)`, end).(Vector)
	if len(v) != 2 {
		t.Fatalf("count_values series = %d", len(v))
	}
	for _, s := range v {
		if s.V != 1 {
			t.Errorf("count_values count = %g", s.V)
		}
		if s.Labels.Get("level") == "" {
			t.Error("count_values missing value label")
		}
	}
	g := evalQuery(t, db, `group(smf_pdu_session_active)`, end)
	if got := scalarOf(t, g); got != 1 {
		t.Errorf("group = %g", got)
	}
}

func TestStddevAggregations(t *testing.T) {
	db, end := testDB(t)
	// Values 100 and 200: mean 150, variance 2500, stddev 50.
	if got := scalarOf(t, evalQuery(t, db, `stdvar(smf_pdu_session_active)`, end)); got != 2500 {
		t.Errorf("stdvar = %g", got)
	}
	if got := scalarOf(t, evalQuery(t, db, `stddev(smf_pdu_session_active)`, end)); got != 50 {
		t.Errorf("stddev = %g", got)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	db, end := testDB(t)
	// φ > 1 → +Inf; φ < 0 → -Inf (Prometheus semantics via bucket walk).
	hi := scalarOf(t, evalQuery(t, db, `histogram_quantile(1.2, http_request_duration_seconds_bucket)`, end))
	if hi != 0.5 { // rank beyond the last finite bucket clamps to its bound
		t.Logf("φ>1 yields %g (implementation clamps to the last finite bucket)", hi)
	}
	// Without a +Inf bucket the result is NaN.
	db2 := tsdb.New()
	ts := end.UnixMilli()
	mustAppend(t, db2, map[string]string{"__name__": "h_bucket", "le": "0.1"}, ts, 5)
	mustAppend(t, db2, map[string]string{"__name__": "h_bucket", "le": "0.5"}, ts, 9)
	v := evalQuery(t, db2, `histogram_quantile(0.5, h_bucket)`, end)
	res := Numeric(v)
	if len(res) != 1 || !math.IsNaN(res[0].V) {
		t.Errorf("quantile without +Inf = %v, want NaN", res)
	}
}

func TestRoundWithResolution(t *testing.T) {
	db, end := testDB(t)
	got := scalarOf(t, evalQuery(t, db, `round(vector(12.34), 0.5)`, end))
	if got != 12.5 {
		t.Errorf("round(12.34, 0.5) = %g", got)
	}
	got = scalarOf(t, evalQuery(t, db, `round(vector(12.34))`, end))
	if got != 12 {
		t.Errorf("round(12.34) = %g", got)
	}
}

func TestScalarVectorComparisons(t *testing.T) {
	db, end := testDB(t)
	// scalar on the left: 150 < vector keeps elements where 150 < v.
	v := evalQuery(t, db, `150 < smf_pdu_session_active`, end).(Vector)
	if len(v) != 1 {
		t.Fatalf("scalar<vector kept %d", len(v))
	}
	// The kept value is the vector sample's value.
	if v[0].V != 200 {
		t.Errorf("kept value = %g", v[0].V)
	}
}

func TestTimeAndTimestampFunctions(t *testing.T) {
	db, end := testDB(t)
	got := scalarOf(t, evalQuery(t, db, `time()`, end))
	if math.Abs(got-float64(end.Unix())) > 1 {
		t.Errorf("time() = %g, want ≈%d", got, end.Unix())
	}
	v := evalQuery(t, db, `timestamp(smf_pdu_session_active)`, end).(Vector)
	for _, s := range v {
		if math.Abs(s.V-float64(end.Unix())) > 1 {
			t.Errorf("timestamp() = %g", s.V)
		}
	}
}

func TestFormatValueForms(t *testing.T) {
	db, end := testDB(t)
	if got := FormatValue(evalQuery(t, db, `sum(smf_pdu_session_active)`, end)); got != "300" {
		t.Errorf("scalar-like format = %q", got)
	}
	if got := FormatValue(Vector{}); got != "(empty result)" {
		t.Errorf("empty format = %q", got)
	}
	vec := evalQuery(t, db, `smf_pdu_session_active`, end)
	if got := FormatValue(vec); !strings.Contains(got, "instance=") {
		t.Errorf("vector format = %q", got)
	}
	if got := FormatValue(String{V: "hello"}); got != "hello" {
		t.Errorf("string format = %q", got)
	}
}

func TestEngineOptionDefaults(t *testing.T) {
	opts := DefaultEngineOptions()
	if opts.LookbackDelta != 5*time.Minute || opts.MaxSamples <= 0 || opts.Timeout <= 0 {
		t.Errorf("defaults = %+v", opts)
	}
	// Zero lookback falls back to the default inside NewEngine.
	eng := NewEngine(tsdb.New(), EngineOptions{})
	if eng.opts.LookbackDelta != 5*time.Minute {
		t.Errorf("lookback fallback = %v", eng.opts.LookbackDelta)
	}
}

func TestUnlessKeepsOnlyLeft(t *testing.T) {
	db, end := testDB(t)
	v := evalQuery(t, db, `smf_pdu_session_active unless smf_pdu_session_active{instance="b"}`, end).(Vector)
	if len(v) != 1 || v[0].Labels.Get("instance") != "a" {
		t.Fatalf("unless = %v", v)
	}
}

func TestOrPreservesBothSides(t *testing.T) {
	db, end := testDB(t)
	v := evalQuery(t, db, `smf_pdu_session_active{instance="a"} or amfcc_n1_auth_request{instance="b"}`, end).(Vector)
	if len(v) != 2 {
		t.Fatalf("or = %d series", len(v))
	}
}
