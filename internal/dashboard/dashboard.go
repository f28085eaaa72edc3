// Package dashboard models the time-series visualisation output of the
// copilot (§3.3: "generate code for creating time-series visualization of
// the relevant variables on a dashboard"). A Dashboard is a declarative
// panel spec — the "code" the model generates — serialisable to a
// Grafana-style JSON document and renderable as ASCII charts for the CLI.
package dashboard

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"dio/internal/catalog"
	"dio/internal/obs"
	"dio/internal/promql"
	"dio/internal/sandbox"
	"dio/internal/tsdb"
)

// PanelKind selects the visualisation of one panel.
type PanelKind string

// KindTimeSeries is the one panel kind the copilot generates.
const KindTimeSeries PanelKind = "timeseries"

// Panel is one chart: a title, a PromQL expression and a unit.
type Panel struct {
	Title string    `json:"title"`
	Query string    `json:"query"`
	Kind  PanelKind `json:"kind"`
	Unit  string    `json:"unit,omitempty"`
}

// Dashboard is a named collection of panels.
type Dashboard struct {
	Title  string  `json:"title"`
	Panels []Panel `json:"panels"`
}

// JSON serialises the dashboard spec.
func (d *Dashboard) JSON() ([]byte, error) { return json.MarshalIndent(d, "", "  ") }

// PanelQuery derives the natural time-series expression for one catalog
// metric: gauges plot per-instance levels, counters plot per-instance
// rates, histogram families plot the p95.
func PanelQuery(m *catalog.Metric) (query, unit string) {
	switch m.Type {
	case catalog.Gauge:
		return m.Name, m.Unit
	case catalog.HistogramBucket:
		return fmt.Sprintf("histogram_quantile(0.95, %s)", m.Name), "seconds"
	case catalog.HistogramSum, catalog.HistogramCount:
		return fmt.Sprintf("sum(rate(%s[5m]))", m.Name), m.Unit
	default:
		u := m.Unit
		if u != "" {
			u += "/s"
		} else {
			u = "ops/s"
		}
		return fmt.Sprintf("sum by (instance) (rate(%s[5m]))", m.Name), u
	}
}

// ForMetrics generates the dashboard spec for a set of relevant metrics —
// the artifact the copilot attaches to every answer.
func ForMetrics(title string, metrics []*catalog.Metric) *Dashboard {
	d := &Dashboard{Title: title}
	for _, m := range metrics {
		q, unit := PanelQuery(m)
		d.Panels = append(d.Panels, Panel{Title: m.Name, Query: q, Kind: KindTimeSeries, Unit: unit})
	}
	return d
}

// Render evaluates every panel over [end-window, end], in panel order,
// and renders ASCII charts (the CLI's dashboard view). It stops at the
// first panel that fails and returns that panel's error.
//
// All panels route through one sandbox executor and therefore one engine:
// repeated renders (and panels sharing a query) reuse the engine's
// compiled-plan cache, so each distinct panel query is planned once, not
// once per refresh.
func Render(ctx context.Context, d *Dashboard, exec *sandbox.Executor, end time.Time, window, step time.Duration, width int) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", d.Title)
	for _, p := range d.Panels {
		// Each panel gets its own child span so the sandbox's
		// query/outcome attributes land per-panel, not on a shared
		// parent, and panel timings show up in the trace tree.
		pctx, psp := obs.StartSpan(ctx, "panel")
		psp.SetAttr("panel.title", p.Title)
		m, err := exec.ExecuteRange(pctx, p.Query, end.Add(-window), end, step)
		psp.End()
		if err != nil {
			return "", fmt.Errorf("dashboard: panel %q: %w", p.Title, err)
		}
		fmt.Fprintf(&b, "\n-- %s (%s) --\n", p.Title, p.Query)
		b.WriteString(Sparklines(m, width))
	}
	return b.String(), nil
}

// sparkGlyphs are the eight vertical-resolution levels of a sparkline.
var sparkGlyphs = []rune("▁▂▃▄▅▆▇█")

// Sparklines renders each matrix series as one labelled sparkline row.
func Sparklines(m promql.Matrix, width int) string {
	if width <= 0 {
		width = 60
	}
	var b strings.Builder
	for _, s := range m {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, smp := range s.Samples {
			lo = math.Min(lo, smp.V)
			hi = math.Max(hi, smp.V)
		}
		var line strings.Builder
		pts := resample(s.Samples, width)
		for _, v := range pts {
			idx := 0
			if hi > lo {
				idx = int((v - lo) / (hi - lo) * float64(len(sparkGlyphs)-1))
			}
			if idx < 0 {
				idx = 0
			}
			if idx >= len(sparkGlyphs) {
				idx = len(sparkGlyphs) - 1
			}
			line.WriteRune(sparkGlyphs[idx])
		}
		label := s.Labels.String()
		if label == "" {
			label = "{}"
		}
		fmt.Fprintf(&b, "%s  [%.4g .. %.4g] %s\n", line.String(), lo, hi, label)
	}
	if len(m) == 0 {
		b.WriteString("(no data)\n")
	}
	return b.String()
}

// resample reduces (or stretches) a sample series to exactly width points
// by bucketed averaging.
func resample(samples []tsdb.Sample, width int) []float64 {
	if len(samples) == 0 {
		return nil
	}
	out := make([]float64, 0, width)
	for i := 0; i < width; i++ {
		lo := i * len(samples) / width
		hi := (i + 1) * len(samples) / width
		if hi <= lo {
			hi = lo + 1
		}
		if hi > len(samples) {
			hi = len(samples)
		}
		if lo >= len(samples) {
			break
		}
		var sum float64
		for _, s := range samples[lo:hi] {
			sum += s.V
		}
		out = append(out, sum/float64(hi-lo))
	}
	return out
}
