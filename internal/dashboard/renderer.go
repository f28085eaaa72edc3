package dashboard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"dio/internal/obs"
	"dio/internal/sandbox"
)

// Renderer evaluates dashboard panels concurrently through a bounded
// worker pool. Panels are independent range queries, so rendering them in
// parallel hides per-panel storage latency. The pool bounds one
// dashboard's evaluation pressure on the store; the server's admission
// gate, whose slot the ask holds, bounds how many run at once. A Renderer
// is safe for concurrent use.
type Renderer struct {
	exec    *sandbox.Executor
	workers int
	metrics *rendererMetrics
}

// rendererMetrics holds the obs instruments attached by Instrument.
type rendererMetrics struct {
	panelSeconds *obs.Histogram  // dio_dashboard_panel_render_seconds
	panels       *obs.CounterVec // dio_dashboard_panels_total{outcome}
}

// NewRenderer returns a renderer that evaluates at most workers panels at
// once; workers <= 0 defaults to GOMAXPROCS.
func NewRenderer(exec *sandbox.Executor, workers int) *Renderer {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Renderer{exec: exec, workers: workers}
}

// Instrument registers the renderer's self-metrics on reg. Call once,
// before serving.
func (r *Renderer) Instrument(reg *obs.Registry) {
	r.metrics = &rendererMetrics{
		panelSeconds: reg.Histogram("dio_dashboard_panel_render_seconds",
			"Wall-clock latency of one dashboard panel's range query.", "seconds", obs.DefBuckets()),
		panels: reg.CounterVec("dio_dashboard_panels_total",
			"Dashboard panels rendered by outcome (ok, error, cancelled).", "", "outcome"),
	}
}

// observePanel records one panel render (no-op when uninstrumented).
func (r *Renderer) observePanel(err error, d time.Duration) {
	if r.metrics == nil {
		return
	}
	r.metrics.panelSeconds.Observe(d.Seconds())
	switch {
	case err == nil:
		r.metrics.panels.With("ok").Inc()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		r.metrics.panels.With("cancelled").Inc()
	default:
		r.metrics.panels.With("error").Inc()
	}
}

// Render evaluates every panel over [end-window, end] and renders ASCII
// charts. Panels evaluate concurrently but the output is assembled in
// panel order, so the rendering is deterministic. The first panel failure
// cancels the remaining evaluations; the reported error is the
// lowest-index panel's root failure, not a cascade cancellation.
//
// All panels route through one sandbox executor and therefore one engine:
// repeated renders (and panels sharing a query) reuse the engine's
// compiled-plan cache, so each distinct panel query is planned once, not
// once per refresh.
func (r *Renderer) Render(ctx context.Context, d *Dashboard, end time.Time, window, step time.Duration, width int) (string, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type slot struct {
		body string
		err  error
	}
	slots := make([]slot, len(d.Panels))
	sem := make(chan struct{}, r.workers)
	done := make(chan int)
	for i, p := range d.Panels {
		go func(i int, p Panel) {
			defer func() { done <- i }()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				slots[i].err = ctx.Err()
				return
			}
			// Each panel gets its own child span so the sandbox's
			// query/outcome attributes land per-panel, not on a shared
			// parent, and panel timings show up in the trace tree.
			pctx, psp := obs.StartSpan(ctx, "panel")
			psp.SetAttr("panel.title", p.Title)
			started := time.Now()
			m, err := r.exec.ExecuteRange(pctx, p.Query, end.Add(-window), end, step)
			r.observePanel(err, time.Since(started))
			psp.End()
			if err != nil {
				slots[i].err = err
				cancel() // stop sibling panels; their errors are cascades
				return
			}
			var b strings.Builder
			fmt.Fprintf(&b, "\n-- %s (%s) --\n", p.Title, p.Query)
			b.WriteString(Sparklines(m, width))
			slots[i].body = b.String()
		}(i, p)
	}
	for range d.Panels {
		<-done
	}

	// Prefer the lowest-index non-cancellation error: with the shared
	// cancel, context errors on other panels are downstream of the real
	// failure (unless the caller's own context was cancelled).
	var firstErr error
	for i := range slots {
		err := slots[i].err
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("dashboard: panel %q: %w", d.Panels[i].Title, err)
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			firstErr = fmt.Errorf("dashboard: panel %q: %w", d.Panels[i].Title, err)
			break
		}
	}
	if firstErr != nil {
		return "", firstErr
	}

	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", d.Title)
	for i := range slots {
		b.WriteString(slots[i].body)
	}
	return b.String(), nil
}
