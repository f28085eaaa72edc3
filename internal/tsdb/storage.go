package tsdb

// Storage is the read/append surface of a DB. Everything above the
// storage layer (ingest, promql, core, the servers and benches) programs
// against this interface, so a caller can wrap the store — the bench
// harness times every selection through a decorator — without the engine
// knowing.
//
// All read methods return results in canonical fingerprint order — the
// ordering contract the plan executor's merge and the byte-identity
// oracles rely on.
type Storage interface {
	// Append path.
	Append(ls Labels, t int64, v float64) error
	AppendSamples(ls Labels, samples []Sample) (appended, outOfOrder, duplicate int, err error)

	// Selection.
	Select(matchers []*Matcher, t, lookback int64) []SeriesPoint
	SelectRange(matchers []*Matcher, start, end int64) []SeriesRange
	SelectSeries(matchers []*Matcher) []SeriesView
	SelectBatch(hints []SelectHint) [][]SeriesView
	AllSeries() []SeriesRange

	// Index / metadata.
	LabelValues(name string) []string
	MetricNames() []string
	HasMetric(name string) bool
	MetricTimeRange(name string) (minT, maxT int64, ok bool)
	TimeRange() (minT, maxT int64, ok bool)
	HeadTime() int64

	// Stats and retention.
	NumSeries() int
	NumSamples() int64
	Stats() StorageStats
	Truncate(keepAfter int64) int64
}

var _ Storage = (*DB)(nil)
