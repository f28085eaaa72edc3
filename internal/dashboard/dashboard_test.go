package dashboard

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"dio/internal/catalog"
	"dio/internal/promql"
	"dio/internal/sandbox"
	"dio/internal/tsdb"
)

func testMetric(name string, typ catalog.MetricType) *catalog.Metric {
	return &catalog.Metric{Name: name, Type: typ, Description: "test metric"}
}

func TestPanelQueryByType(t *testing.T) {
	cases := []struct {
		m    *catalog.Metric
		want string
	}{
		{testMetric("g", catalog.Gauge), "g"},
		{testMetric("c_total", catalog.Counter), "sum by (instance) (rate(c_total[5m]))"},
		{testMetric("h_bucket", catalog.HistogramBucket), "histogram_quantile(0.95, h_bucket)"},
		{testMetric("h_sum", catalog.HistogramSum), "sum(rate(h_sum[5m]))"},
	}
	for _, c := range cases {
		q, _ := PanelQuery(c.m)
		if q != c.want {
			t.Errorf("PanelQuery(%s) = %q, want %q", c.m.Name, q, c.want)
		}
		if _, err := promql.Parse(q); err != nil {
			t.Errorf("panel query %q does not parse: %v", q, err)
		}
	}
}

func TestForMetricsAndJSONRoundTrip(t *testing.T) {
	d := ForMetrics("capacity", []*catalog.Metric{
		testMetric("a", catalog.Gauge),
		testMetric("b_total", catalog.Counter),
	})
	if len(d.Panels) != 2 || d.Title != "capacity" {
		t.Fatalf("dashboard = %+v", d)
	}
	data, err := d.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Dashboard
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Title != d.Title || len(back.Panels) != len(d.Panels) || back.Panels[0].Query != d.Panels[0].Query {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestSparklines(t *testing.T) {
	m := promql.Matrix{{
		Labels: tsdb.FromMap(map[string]string{"__name__": "x"}),
		Samples: []tsdb.Sample{
			{T: 0, V: 0}, {T: 1, V: 5}, {T: 2, V: 10},
		},
	}}
	out := Sparklines(m, 12)
	if !strings.Contains(out, "x") {
		t.Errorf("missing series label: %q", out)
	}
	if !strings.ContainsRune(out, '▁') || !strings.ContainsRune(out, '█') {
		t.Errorf("expected min and max glyphs in %q", out)
	}
	if got := Sparklines(nil, 10); !strings.Contains(got, "no data") {
		t.Errorf("empty matrix rendering = %q", got)
	}
	// Constant series renders the lowest glyph everywhere, no panic.
	flat := promql.Matrix{{Samples: []tsdb.Sample{{T: 0, V: 3}, {T: 1, V: 3}}}}
	if out := Sparklines(flat, 4); !strings.Contains(out, "▁▁▁▁") {
		t.Errorf("flat series rendering = %q", out)
	}
}

func TestResample(t *testing.T) {
	samples := make([]tsdb.Sample, 10)
	for i := range samples {
		samples[i] = tsdb.Sample{T: int64(i), V: float64(i)}
	}
	out := resample(samples, 5)
	if len(out) != 5 {
		t.Fatalf("resampled to %d points, want 5", len(out))
	}
	// Averages of pairs: 0.5, 2.5, 4.5, 6.5, 8.5.
	if out[0] != 0.5 || out[4] != 8.5 {
		t.Errorf("resample = %v", out)
	}
	// Stretch: more points than samples.
	if got := resample(samples[:2], 6); len(got) == 0 {
		t.Error("stretch resample empty")
	}
	if resample(nil, 4) != nil {
		t.Error("nil samples should resample to nil")
	}
}

func TestRenderEndToEnd(t *testing.T) {
	db := tsdb.New()
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 30; i++ {
		ls := tsdb.FromMap(map[string]string{"__name__": "g"})
		if err := db.Append(ls, base.Add(time.Duration(i)*time.Minute).UnixMilli(), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	ex := sandbox.New(db, sandbox.DefaultLimits())
	d := ForMetrics("demo", []*catalog.Metric{testMetric("g", catalog.Gauge)})
	out, err := Render(context.Background(), d, ex, base.Add(29*time.Minute), 20*time.Minute, time.Minute, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "demo") || !strings.Contains(out, "g") {
		t.Errorf("rendering missing titles: %q", out)
	}
	// A broken panel propagates the error.
	bad := &Dashboard{Title: "bad", Panels: []Panel{{Title: "p", Query: "sum("}}}
	if _, err := Render(context.Background(), bad, ex, base, time.Minute, time.Second, 10); err == nil {
		t.Fatal("expected panel error")
	}
}

// renderFixture is renderStore's store behind a sandbox executor.
func renderFixture(t testing.TB, n int) (*sandbox.Executor, *Dashboard, time.Time) {
	t.Helper()
	db, d, end := renderStore(t, n)
	return sandbox.New(db, sandbox.DefaultLimits()), d, end
}

// renderStore builds a store with n gauge metrics (g0..g<n-1>, one series
// each, 30 one-minute samples), a dashboard with one panel per metric, and
// the time of the last sample.
func renderStore(t testing.TB, n int) (*tsdb.DB, *Dashboard, time.Time) {
	t.Helper()
	db := tsdb.New()
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	d := &Dashboard{Title: "fixture"}
	for p := 0; p < n; p++ {
		name := fmt.Sprintf("g%d", p)
		ls := tsdb.FromMap(map[string]string{"__name__": name})
		for i := 0; i < 30; i++ {
			if err := db.Append(ls, base.Add(time.Duration(i)*time.Minute).UnixMilli(), float64(i*(p+1))); err != nil {
				t.Fatal(err)
			}
		}
		d.Panels = append(d.Panels, Panel{Title: name, Query: name, Kind: KindTimeSeries})
	}
	return db, d, base.Add(29 * time.Minute)
}

// selectLog wraps a store and records the metric name of every selector
// the engine selects through it (it selects only through SelectBatch),
// calling onSelect (when set) after each batch.
type selectLog struct {
	tsdb.Storage
	names    []string
	onSelect func()
}

func (s *selectLog) SelectBatch(hints []tsdb.SelectHint) [][]tsdb.SeriesView {
	for _, h := range hints {
		for _, m := range h.Matchers {
			if m.Name == tsdb.MetricNameLabel {
				s.names = append(s.names, m.Value)
			}
		}
	}
	if s.onSelect != nil {
		s.onSelect()
	}
	return s.Storage.SelectBatch(hints)
}

// TestRendererPanelErrorWins: the error names the failing panel, and no
// panel after it is evaluated.
func TestRendererPanelErrorWins(t *testing.T) {
	db, d, end := renderStore(t, 6)
	d.Panels[3].Query = "sum(g3" // parse error
	log := &selectLog{Storage: db}
	exec := sandbox.New(log, sandbox.DefaultLimits())
	_, err := Render(context.Background(), d, exec, end, 20*time.Minute, time.Minute, 40)
	if err == nil {
		t.Fatal("expected panel error")
	}
	if !strings.Contains(err.Error(), `panel "g3"`) {
		t.Errorf("error does not name the failing panel: %v", err)
	}
	if want := []string{"g0", "g1", "g2"}; strings.Join(log.names, ",") != strings.Join(want, ",") {
		t.Errorf("selected %v, want %v: panels after the failure must not be evaluated", log.names, want)
	}
}

// TestRendererMidRenderCancellation: a context cancelled before Render,
// or while a panel is being evaluated, ends the render with an error
// matching context.Canceled, and no later panel is evaluated.
func TestRendererMidRenderCancellation(t *testing.T) {
	db, d, end := renderStore(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	exec := sandbox.New(db, sandbox.DefaultLimits())
	if _, err := Render(ctx, d, exec, end, 20*time.Minute, time.Minute, 40); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled render: err = %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	log := &selectLog{Storage: db, onSelect: cancel}
	exec = sandbox.New(log, sandbox.DefaultLimits())
	if _, err := Render(ctx, d, exec, end, 20*time.Minute, time.Minute, 40); !errors.Is(err, context.Canceled) {
		t.Errorf("mid-render cancel: err = %v, want context.Canceled", err)
	}
	if strings.Join(log.names, ",") != "g0" {
		t.Errorf("selected %v after cancelling in g0's selection, want only g0", log.names)
	}
}

var updateRender = flag.Bool("update", false, "rewrite testdata/render.golden from this run's rendering")

// TestRenderGolden pins Render's output for the 8-panel fixture byte for
// byte: the header, then every panel in declaration order.
func TestRenderGolden(t *testing.T) {
	exec, d, end := renderFixture(t, 8)
	got, err := Render(context.Background(), d, exec, end, 20*time.Minute, time.Minute, 40)
	if err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/render.golden"
	if *updateRender {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("Render output differs from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}
