package obs

import (
	"context"
	"log/slog"
	"time"

	"dio/internal/tsdb"
)

// SelfScrapeJobLabel marks self-scraped series in the operator TSDB.
const SelfScrapeJobLabel = "dio"

// SelfScraper periodically appends the registry's samples into the
// operator TSDB as dio_* series (with job="dio"), closing the dogfooding
// loop: the copilot's own telemetry becomes queryable through the same
// /api/v1/query and ask pipeline as any operator metric.
type SelfScraper struct {
	reg      *Registry
	db       tsdb.Storage
	interval time.Duration
	logger   *slog.Logger
	clock    func() time.Time

	// lastT forces strictly increasing scrape timestamps, matching the
	// TSDB's append contract even when the clock is coarse.
	lastT int64

	scrapes *Counter
	appends *Counter
	errs    *Counter
}

// NewSelfScraper wires a scraper from reg into db. interval <= 0 defaults
// to 15s; logger may be nil to disable error logs.
func NewSelfScraper(reg *Registry, db tsdb.Storage, interval time.Duration, logger *slog.Logger) *SelfScraper {
	if interval <= 0 {
		interval = 15 * time.Second
	}
	return &SelfScraper{
		reg:      reg,
		db:       db,
		interval: interval,
		logger:   logger,
		clock:    time.Now,
		scrapes:  reg.Counter("dio_selfscrape_scrapes_total", "Completed self-scrape passes.", ""),
		appends:  reg.Counter("dio_selfscrape_samples_total", "Samples appended into the TSDB by self-scraping.", ""),
		errs:     reg.Counter("dio_selfscrape_errors_total", "Samples the self-scrape failed to append.", ""),
	}
}

// ScrapeOnce gathers the registry and appends every sample at one
// timestamp. It returns how many samples were appended and how many
// appends failed.
func (s *SelfScraper) ScrapeOnce() (appended, failed int) {
	t := s.clock().UnixMilli()
	if t <= s.lastT {
		t = s.lastT + 1
	}
	s.lastT = t
	for _, fam := range s.reg.Gather() {
		for _, smp := range fam.Samples {
			m := make(map[string]string, len(smp.Labels)+2)
			m[tsdb.MetricNameLabel] = fam.Name + smp.Suffix
			m["job"] = SelfScrapeJobLabel
			for _, l := range smp.Labels {
				m[l.Name] = l.Value
			}
			if err := s.db.Append(tsdb.FromMap(m), t, smp.Value); err != nil {
				failed++
				if s.logger != nil {
					s.logger.Error("selfscrape append failed", "metric", m[tsdb.MetricNameLabel], "err", err)
				}
				continue
			}
			appended++
		}
	}
	// Account after the pass so the counters converge one scrape behind.
	s.scrapes.Inc()
	s.appends.Add(float64(appended))
	s.errs.Add(float64(failed))
	return appended, failed
}

// Run scrapes immediately and then every interval until ctx is done. It is
// intended to run on its own goroutine; ScrapeOnce is not safe to call
// concurrently with a running loop.
func (s *SelfScraper) Run(ctx context.Context) {
	s.ScrapeOnce()
	ticker := time.NewTicker(s.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			s.ScrapeOnce()
		}
	}
}
