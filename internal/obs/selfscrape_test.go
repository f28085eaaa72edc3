package obs_test

import (
	"context"
	"testing"
	"time"

	"dio/internal/obs"
	"dio/internal/promql"
	"dio/internal/tsdb"
)

// TestSelfScrapeRoundTrip drives the dogfooding loop end to end: observe
// into the registry, scrape into a TSDB, and read the series back through
// the PromQL engine — including a histogram_quantile over the scraped
// _bucket series.
func TestSelfScrapeRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	db := tsdb.New()
	s := obs.NewSelfScraper(reg, db, time.Second, nil)
	base := time.Date(2026, 7, 6, 10, 0, 0, 0, time.UTC)
	now := base
	s.SetClock(func() time.Time { return now })

	asks := reg.Counter("dio_ask_total", "Questions answered.", "")
	lat := reg.Histogram("dio_ask_duration_seconds", "Ask latency.", "seconds", []float64{0.1, 0.5, 1, 5})
	for i := 0; i < 4; i++ {
		asks.Inc()
		lat.Observe(0.3)
		now = now.Add(15 * time.Second)
		if _, failed := s.ScrapeOnce(); failed != 0 {
			t.Fatalf("scrape %d: %d failed appends", i, failed)
		}
	}

	eng := promql.NewEngine(db, promql.DefaultEngineOptions())
	evalAt := now
	query := func(q string) (promql.Value, error) {
		expr, err := promql.Parse(q)
		if err != nil {
			return nil, err
		}
		return eng.Eval(context.Background(), expr, evalAt)
	}

	v, err := query("dio_ask_total")
	if err != nil {
		t.Fatal(err)
	}
	vec, ok := v.(promql.Vector)
	if !ok || len(vec) != 1 {
		t.Fatalf("dio_ask_total = %v", v)
	}
	if vec[0].V != 4 {
		t.Errorf("dio_ask_total = %v, want 4", vec[0].V)
	}
	if vec[0].Labels.Get("job") != obs.SelfScrapeJobLabel {
		t.Errorf("job label = %q, want %q", vec[0].Labels.Get("job"), obs.SelfScrapeJobLabel)
	}

	// The scraped cumulative buckets answer quantile questions: every
	// observation was 0.3s, so p95 interpolates inside the (0.1, 0.5]
	// bucket.
	v, err = query("histogram_quantile(0.95, dio_ask_duration_seconds_bucket)")
	if err != nil {
		t.Fatal(err)
	}
	vec, ok = v.(promql.Vector)
	if !ok || len(vec) != 1 {
		t.Fatalf("histogram_quantile = %v", v)
	}
	if q := vec[0].V; q <= 0.1 || q > 0.5 {
		t.Errorf("p95 = %v, want within (0.1, 0.5]", q)
	}

	// The scrape accounts for itself: counters lag one pass behind.
	if got := s.ScrapePasses(); got != 4 {
		t.Errorf("scrapes counter = %v, want 4", got)
	}

	// Strictly increasing timestamps even with a frozen clock.
	frozen := now
	s.SetClock(func() time.Time { return frozen })
	if _, failed := s.ScrapeOnce(); failed != 0 {
		t.Fatalf("frozen-clock scrape: %d failed appends", failed)
	}
	if _, failed := s.ScrapeOnce(); failed != 0 {
		t.Fatalf("second frozen-clock scrape: %d failed appends", failed)
	}
}

// TestSelfScraperRunStops checks the loop exits on context cancellation.
func TestSelfScraperRunStops(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("x_total", "", "").Inc()
	s := obs.NewSelfScraper(reg, tsdb.New(), time.Millisecond, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		s.Run(ctx)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not stop after cancel")
	}
}
