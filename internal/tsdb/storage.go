package tsdb

// Storage is the surface of a DB that the query side programs against:
// promql's engine, the sandbox and the copilot read through it, so a
// caller can wrap the store — the bench harness times every selection
// through a decorator — without the engine knowing. Ingest, retention and
// the servers' start-up figures use *DB directly.
//
// All selections return results in canonical fingerprint order — the
// ordering contract the plan executor's merge and the byte-identity
// oracles rely on.
type Storage interface {
	// Append adds one sample; see DB.Append for the rejection policy.
	Append(ls Labels, t int64, v float64) error

	// Selection: the samples of every series the matchers pick, at one
	// instant, over a window, as live views, or for a batch of selectors.
	Select(matchers []*Matcher, t, lookback int64) []SeriesPoint
	SelectRange(matchers []*Matcher, start, end int64) []SeriesRange
	SelectSeries(matchers []*Matcher) []SeriesView
	SelectBatch(hints []SelectHint) [][]SeriesView

	// Time ranges, from which callers pick a default evaluation instant.
	MetricTimeRange(name string) (minT, maxT int64, ok bool)
	TimeRange() (minT, maxT int64, ok bool)
}

var _ Storage = (*DB)(nil)
