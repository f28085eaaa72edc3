package obs

import "time"

// SetClock overrides the scraper clock — a seam for the external
// (obs_test) round-trip test, which must live outside package obs because
// it drives the PromQL engine (promql imports obs for trace annotation).
func (s *SelfScraper) SetClock(fn func() time.Time) { s.clock = fn }

// ScrapePasses returns the dio_selfscrape_scrapes_total counter value.
func (s *SelfScraper) ScrapePasses() float64 { return s.scrapes.Value() }

// Value returns the current count.
func (c *Counter) Value() float64 { return c.c.get() }
