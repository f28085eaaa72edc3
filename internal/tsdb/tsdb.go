package tsdb

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Sample is one observation: a millisecond Unix timestamp and a value.
type Sample struct {
	T int64
	V float64
}

// DB is an in-memory labelled time-series store holding samples as
// Gorilla-compressed chunks. It is safe for concurrent use. The zero
// value is not usable; call New.
type DB struct {
	mu sync.RWMutex
	// series by fingerprint.
	series map[string]*Series
	// byRef holds every series ever created at the index of its ref; slot
	// 0 and the slots of dropped series are nil.
	byRef []*Series
	// index is the inverted label→value→fingerprint index used to narrow
	// selector scans; its __name__ entries are the per-metric posting
	// lists.
	index postings
	// keys holds every fingerprint, sorted, maintained incrementally on
	// append/truncate: the candidate list for selectors with no usable
	// equality matcher.
	keys []string
	// minT/maxT track the ingested time range.
	minT, maxT int64
	samples    int64
	// keyBuf is the appenders' reused series-key buffer (under the write
	// lock).
	keyBuf []byte
}

// New returns an empty database.
func New() *DB {
	return &DB{series: make(map[string]*Series), byRef: []*Series{nil}, index: make(postings), minT: 1<<63 - 1, maxT: -(1<<63 - 1)}
}

// SeriesRef identifies a series within one DB, like the Prometheus head
// block's storage.SeriesRef: dense, assigned at creation and never reused,
// so a ref held past a retention drop never addresses a later series. The
// zero ref is "not resolved yet".
type SeriesRef uint64

// ErrOutOfOrder is returned when appending a sample before the last
// timestamp of its series. The store's append policy mirrors Prometheus:
// within one series timestamps must be strictly increasing; out-of-order
// and duplicate-timestamp writes are rejected (never silently reordered)
// so that WAL replay, remote write retries and bulk loads all converge on
// the same stored state.
var ErrOutOfOrder = errors.New("tsdb: out-of-order sample")

// ErrDuplicateTimestamp is returned when appending a sample at a series'
// current newest timestamp with a *different* value. It wraps
// ErrOutOfOrder so callers matching the broad policy keep working, while
// ingest paths can count the two cases separately. Re-appending the
// newest (timestamp, value) pair exactly is accepted as a no-op: that is
// what makes WAL replay after a partially acknowledged batch idempotent.
var ErrDuplicateTimestamp = fmt.Errorf("%w: duplicate timestamp", ErrOutOfOrder)

// Append adds one sample to the series identified by ls. Timestamps
// within a series must be strictly increasing; see ErrOutOfOrder and
// ErrDuplicateTimestamp for the rejection policy.
func (db *DB) Append(ls Labels, t int64, v float64) error {
	var ref SeriesRef
	return db.AppendRef(&ref, ls, t, v)
}

// AppendRef is Append by ref: a live *ref costs one slice index, and ls
// is not read. A zero *ref, or one whose series retention dropped,
// resolves from ls, creating the series if needed, and is written back.
func (db *DB) AppendRef(ref *SeriesRef, ls Labels, t int64, v float64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.appendRefLocked(ref, ls, t, v)
}

// AppendScrape is AppendRef(&refs[i], ls[i], t, vals[i]) for every i
// under one write lock. It stops at the first error; earlier samples stay.
func (db *DB) AppendScrape(refs []SeriesRef, ls []Labels, t int64, vals []float64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for i, v := range vals {
		if err := db.appendRefLocked(&refs[i], ls[i], t, v); err != nil {
			return err
		}
	}
	return nil
}

// maxSamplesPerLock bounds the samples AppendSeries appends under one hold
// of the write lock. A query waits for at most one hold, about 1 024
// appends (tens of microseconds), however large the push: a 2 M-sample
// push would otherwise hold the lock for the whole of it. A 2 000-series
// push of one sample each takes the lock twice, not once per series.
const maxSamplesPerLock = 1024

// SeriesAppend is one series' part of an AppendSeries batch: the ref it
// appends by, its labels, read only when *Ref is zero or names a series
// retention dropped (AppendRef's rule, which writes the resolved ref
// back), and its samples.
type SeriesAppend struct {
	Ref     *SeriesRef
	Labels  Labels
	Samples []Sample
}

// AppendSeries appends a batch of series by ref, taking the write lock
// once per maxSamplesPerLock samples rather than once per series or per
// sample. The policy per sample is exactly Append's: out-of-order and
// conflicting duplicates are skipped and counted (never stored), identical
// re-appends of the newest sample count as accepted. An entry with no
// samples is skipped. It stops at the first series that does not resolve
// (no metric name); earlier samples stay.
func (db *DB) AppendSeries(batch []SeriesAppend) (appended, outOfOrder, duplicate int, err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	held := 0 // samples appended under the current hold
	for _, e := range batch {
		for samples := e.Samples; len(samples) > 0; {
			if held == maxSamplesPerLock {
				// Waiting readers go first: Unlock admits them before
				// the next Lock can succeed.
				db.mu.Unlock()
				db.mu.Lock()
				held = 0
			}
			s, err := db.resolveLocked(e.Ref, e.Labels)
			if err != nil {
				return appended, outOfOrder, duplicate, err
			}
			n := min(len(samples), maxSamplesPerLock-held)
			for _, smp := range samples[:n] {
				switch db.appendLocked(s, smp.T, smp.V) {
				case nil:
					appended++
				case ErrDuplicateTimestamp:
					duplicate++
				default:
					outOfOrder++
				}
			}
			held += n
			samples = samples[n:]
		}
	}
	return appended, outOfOrder, duplicate, nil
}

// AppendSamples is AppendSeries for one series resolved from ls.
func (db *DB) AppendSamples(ls Labels, samples []Sample) (appended, outOfOrder, duplicate int, err error) {
	var ref SeriesRef
	return db.AppendSeries([]SeriesAppend{{Ref: &ref, Labels: ls, Samples: samples}})
}

// appendRefLocked resolves ref and appends one sample, wrapping a rejection
// with the series and timestamps. Callers must hold the write lock.
func (db *DB) appendRefLocked(ref *SeriesRef, ls Labels, t int64, v float64) error {
	s, err := db.resolveLocked(ref, ls)
	if err != nil {
		return err
	}
	switch err := db.appendLocked(s, t, v); err {
	case ErrDuplicateTimestamp:
		return fmt.Errorf("%w: series %s at t=%d (stored %v, new %v)", err, s.Labels, t, s.lastV, v)
	case ErrOutOfOrder:
		return fmt.Errorf("%w: series %s at t=%d (last %d)", err, s.Labels, t, s.lastT)
	}
	return nil
}

// appendLocked is the store's one append policy: it stores (t, v), or
// accepts a re-append of the newest sample as a no-op, or stores nothing
// and returns bare ErrOutOfOrder or ErrDuplicateTimestamp. Callers must
// hold the write lock.
func (db *DB) appendLocked(s *Series, t int64, v float64) error {
	if s.total > 0 {
		switch {
		case t < s.lastT:
			return ErrOutOfOrder
		case t == s.lastT:
			if math.Float64bits(v) == math.Float64bits(s.lastV) {
				return nil // idempotent re-append of the newest sample
			}
			return ErrDuplicateTimestamp
		}
	}
	s.append(t, v)
	if t < db.minT {
		db.minT = t
	}
	if t > db.maxT {
		db.maxT = t
	}
	db.samples++
	return nil
}

// resolveLocked returns the live series *ref names, else the series for
// ls, created if needed, writing its ref to *ref. Only a new series
// allocates. Callers must hold the write lock.
func (db *DB) resolveLocked(ref *SeriesRef, ls Labels) (*Series, error) {
	if uint64(*ref) < uint64(len(db.byRef)) {
		if s := db.byRef[*ref]; s != nil {
			return s, nil
		}
	}
	if ls.Name() == "" {
		return nil, fmt.Errorf("tsdb: series %s has no metric name", ls.String())
	}
	db.keyBuf = ls.AppendKey(db.keyBuf[:0])
	s, ok := db.series[string(db.keyBuf)]
	if !ok {
		s = db.addSeriesLocked(string(db.keyBuf), ls)
	}
	*ref = s.ref
	return s, nil
}

// addSeriesLocked registers a new empty series under the next ref and
// indexes it. The series keeps a copy of ls carved from key, never the
// caller's label memory. Callers must hold the write lock.
func (db *DB) addSeriesLocked(key string, ls Labels) *Series {
	kept := ls.cloneFromKey(key) // a new variable, so ls does not escape
	s := &Series{Labels: kept, fp: key, ref: SeriesRef(len(db.byRef))}
	db.byRef = append(db.byRef, s)
	db.series[key] = s
	db.index.add(key, kept)
	db.keys = insertSorted(db.keys, key)
	return s
}

// dropSeriesLocked removes a series from the store and every index. Its
// ref slot stays, empty, so the ref is never handed out again. Callers
// must hold the write lock.
func (db *DB) dropSeriesLocked(key string, s *Series) {
	delete(db.series, key)
	db.byRef[s.ref] = nil
	db.index.remove(key, s.Labels)
	db.keys = removeSorted(db.keys, key)
}

// NumSeries returns the number of stored series.
func (db *DB) NumSeries() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.series)
}

// NumSamples returns the total number of stored samples.
func (db *DB) NumSamples() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.samples
}

// StorageStats describes the store's compressed footprint.
type StorageStats struct {
	Series  int
	Samples int64
	Chunks  int
	// ChunkBytes is the compressed sample data size (sealed chunks plus
	// open heads); it excludes label sets and index structures.
	ChunkBytes int64
	// BytesPerSample is ChunkBytes / Samples (0 when empty).
	BytesPerSample float64
	// CompressionRatio compares against the raw 16-byte
	// (int64 timestamp + float64 value) sample representation.
	CompressionRatio float64
}

// Stats returns the store's storage statistics.
func (db *DB) Stats() StorageStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	st := StorageStats{Series: len(db.series), Samples: db.samples}
	for _, s := range db.series {
		st.ChunkBytes += int64(s.numBytes())
		st.Chunks += s.numChunks()
	}
	if db.samples > 0 {
		st.BytesPerSample = float64(st.ChunkBytes) / float64(db.samples)
		if st.ChunkBytes > 0 {
			st.CompressionRatio = 16 / st.BytesPerSample
		}
	}
	return st
}

// TimeRange returns the min and max ingested timestamps; ok is false when
// the database is empty.
func (db *DB) TimeRange() (minT, maxT int64, ok bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.samples == 0 {
		return 0, 0, false
	}
	return db.minT, db.maxT, true
}

// HeadTime returns the newest ingested timestamp (0 when empty). It is
// the cheap data-freshness signal the serving cache folds into answer
// keys: answers computed against an older head stop being addressable
// once ingestion advances past their freshness bucket.
func (db *DB) HeadTime() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.samples == 0 {
		return 0
	}
	return db.maxT
}

// MetricTimeRange returns the min and max sample timestamps across the
// series of one metric name; ok is false when the metric has no samples.
// It lets callers pick a default evaluation instant per metric, so stores
// mixing timelines (a frozen operator trace plus live dio_* self-scrapes)
// resolve "now" to the newest data of the metric actually queried.
func (db *DB) MetricTimeRange(name string) (minT, maxT int64, ok bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	minT, maxT = 1<<63-1, -(1<<63 - 1)
	for _, key := range db.index.get(MetricNameLabel, name) {
		s := db.series[key]
		first, nonEmpty := s.minTime()
		if !nonEmpty {
			continue
		}
		if first < minT {
			minT = first
		}
		if s.lastT > maxT {
			maxT = s.lastT
		}
		ok = true
	}
	if !ok {
		return 0, 0, false
	}
	return minT, maxT, true
}

// candidates returns the fingerprints to scan for the given matchers: the
// shortest posting list among the equality matchers, else every series.
// All lists are pre-sorted, so results built by filtering candidates are
// already in canonical order. Callers must hold the read lock.
func (db *DB) candidates(matchers []*Matcher) []string {
	var best []string
	found := false
	for _, m := range matchers {
		// An empty equality value matches series *lacking* the label, which
		// the index cannot answer; fall through to the full key list.
		if m.Type != MatchEqual || m.Value == "" {
			continue
		}
		lst := db.index.get(m.Name, m.Value)
		if !found || len(lst) < len(best) {
			best, found = lst, true
		}
	}
	if found {
		return best
	}
	return db.keys
}

// SeriesPoint is an instant-query result: a series' labels and the sample
// chosen at the evaluation timestamp.
type SeriesPoint struct {
	Labels Labels
	Sample Sample
}

// Select returns, for every series matching matchers, the newest sample at
// or before t that is no older than lookback. Results are ordered by
// label-set key (candidates are iterated in fingerprint order, so no sort
// is needed).
func (db *DB) Select(matchers []*Matcher, t, lookback int64) []SeriesPoint {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []SeriesPoint
	for _, key := range db.candidates(matchers) {
		s := db.series[key]
		if !MatchLabels(s.Labels, matchers) {
			continue
		}
		if smp, ok := s.lastBefore(t, lookback); ok {
			out = append(out, SeriesPoint{Labels: s.Labels, Sample: smp})
		}
	}
	return out
}

// SeriesRange is a range-query result: a series' labels and its samples in
// the window.
type SeriesRange struct {
	Labels  Labels
	Samples []Sample
}

// SelectRange returns, for every series matching matchers, the samples in
// (start, end]. Series with no samples in the window are omitted. Results
// are ordered by label-set key.
func (db *DB) SelectRange(matchers []*Matcher, start, end int64) []SeriesRange {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []SeriesRange
	for _, key := range db.candidates(matchers) {
		s := db.series[key]
		if !MatchLabels(s.Labels, matchers) {
			continue
		}
		w := s.window(start, end)
		if len(w) == 0 {
			continue
		}
		out = append(out, SeriesRange{Labels: s.Labels, Samples: w})
	}
	return out
}

// SeriesView is a handle on one stored series: the shared label set, its
// cached fingerprint and its samples as they were when it was selected.
// SelectSeries decodes them into Samples. SelectBatch leaves Samples nil
// and takes a snapshot instead: the headers of the sealed chunks that
// overlap its hint and a copy of the head chunk's bytes, which
// NewReaders streams forward. The samples stay unchanged across
// concurrent appends and truncations, and must be treated as read-only.
type SeriesView struct {
	Labels      Labels
	Fingerprint string
	Samples     []Sample

	chunks     []chunk // SelectBatch's snapshot, oldest first
	minT, maxT int64   // the hint's clamp
}

// SelectSeries returns views of every series matching matchers, ordered by
// fingerprint. It is the batched selection API behind select-once range
// evaluation: fetch (and decode) the series once, then step over their
// samples with cursors instead of re-running Select per step.
func (db *DB) SelectSeries(matchers []*Matcher) []SeriesView {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []SeriesView
	for _, key := range db.candidates(matchers) {
		s := db.series[key]
		if !MatchLabels(s.Labels, matchers) {
			continue
		}
		out = append(out, SeriesView{
			Labels:      s.Labels,
			Fingerprint: s.fp,
			Samples:     s.allSamples(),
		})
	}
	return out
}

// SelectHint describes one selection of a batched SelectBatch call: the
// matchers to satisfy plus an inclusive [MinT, MaxT] clamp on the sample
// timestamps the caller will actually read. Query planners compute the
// clamp from range hints (offsets, lookback, matrix windows) so the
// returned views carry only the samples the plan can touch — with chunked
// storage the clamp also skips decoding chunks wholly outside the window.
type SelectHint struct {
	Matchers []*Matcher
	// MinT/MaxT bound the sample timestamps of interest, inclusive. Use
	// math.MinInt64/math.MaxInt64 (or leave both zero via NoClamp) to
	// disable clamping on either side.
	MinT, MaxT int64
}

// NoClamp returns a SelectHint covering all of time for matchers.
func NoClamp(matchers []*Matcher) SelectHint {
	return SelectHint{Matchers: matchers, MinT: -(1<<63 - 1) - 1, MaxT: 1<<63 - 1}
}

// SelectBatch resolves several selections under one read lock: the
// batched form of SelectSeries used by the query planner so merged
// selectors hit the postings index once per query instead of once per
// selector evaluation. Result i holds the views for hints[i], ordered by
// fingerprint. It decodes nothing: each view holds a snapshot of the
// chunks that overlap [MinT, MaxT], whose samples read back clamped to it.
// The snapshots' chunk headers share one slab and the head copies another.
func (db *DB) SelectBatch(hints []SelectHint) [][]SeriesView {
	out := make([][]SeriesView, len(hints))
	if len(hints) == 0 {
		return out
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	var matched []*Series
	ends := make([]int, len(hints))
	nChunks, nBytes := 0, 0
	for i, h := range hints {
		for _, key := range db.candidates(h.Matchers) {
			s := db.series[key]
			if !MatchLabels(s.Labels, h.Matchers) {
				continue
			}
			matched = append(matched, s)
			s.overlapping(h.MinT, h.MaxT, func(c chunk, head bool) {
				nChunks++
				if head {
					nBytes += len(c.data)
				}
			})
		}
		ends[i] = len(matched)
	}
	views := make([]SeriesView, len(matched))
	chunks := make([]chunk, 0, nChunks)
	heads := make([]byte, 0, nBytes)
	lo := 0
	for i, h := range hints {
		for j := lo; j < ends[i]; j++ {
			s, from := matched[j], len(chunks)
			s.overlapping(h.MinT, h.MaxT, func(c chunk, head bool) {
				if head {
					at := len(heads)
					heads = append(heads, c.data...)
					c.data = heads[at:len(heads):len(heads)]
				}
				chunks = append(chunks, c)
			})
			views[j] = SeriesView{Labels: s.Labels, Fingerprint: s.fp,
				chunks: chunks[from:len(chunks):len(chunks)], minT: h.MinT, maxT: h.MaxT}
		}
		out[i] = views[lo:ends[i]:ends[i]]
		lo = ends[i]
	}
	return out
}

// AllSeries returns a snapshot of every series (labels and decoded
// samples), ordered by label key. Intended for tests and export.
func (db *DB) AllSeries() []SeriesRange {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]SeriesRange, 0, len(db.series))
	for _, k := range db.keys {
		s := db.series[k]
		out = append(out, SeriesRange{Labels: s.Labels, Samples: s.allSamples()})
	}
	return out
}

// Truncate drops every sample older than keepAfter (exclusive), enforcing
// a retention horizon. Series left empty are removed entirely; partially
// covered chunks are re-encoded around the cut. It returns the number of
// samples dropped.
func (db *DB) Truncate(keepAfter int64) int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	var dropped int64
	newMin := int64(1<<63 - 1)
	for key, s := range db.series {
		if s.total == 0 || s.lastT < keepAfter {
			dropped += int64(s.total)
			db.dropSeriesLocked(key, s)
			continue
		}
		first, _ := s.minTime()
		if first >= keepAfter {
			if first < newMin {
				newMin = first
			}
			continue // nothing to drop
		}
		// Drop whole chunks below the horizon, then re-encode the first
		// surviving chunk if the cut lands inside it.
		cut := 0
		for cut < len(s.chunks) && s.chunks[cut].maxT < keepAfter {
			dropped += int64(s.chunks[cut].count)
			s.total -= s.chunks[cut].count
			cut++
		}
		s.chunks = append(s.chunks[:0], s.chunks[cut:]...)
		first, _ = s.minTime()
		if first < keepAfter {
			kept := s.decodeRange(keepAfter, math.MaxInt64, nil)
			dropped += int64(s.total - len(kept))
			s.replaceSamples(kept)
		}
		if first, ok := s.minTime(); ok && first < newMin {
			newMin = first
		}
	}
	db.samples -= dropped
	if db.samples == 0 {
		db.minT = 1<<63 - 1
		db.maxT = -(1<<63 - 1)
	} else {
		db.minT = newMin
	}
	return dropped
}
