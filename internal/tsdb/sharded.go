package tsdb

import (
	"sort"
	"sync"
)

// ShardedDB fronts N independent DB shards and routes every series to
// exactly one shard by a hash of its label fingerprint. Appends touch a
// single shard's lock, so concurrent ingest writers stop contending on
// one mutex; reads fan out to every shard and merge the per-shard
// results back into canonical fingerprint order. Because the hash is a
// pure function of the fingerprint, the same series always lands on the
// same shard across processes and restarts — which is what lets the
// ingest layer checkpoint and replay shards independently.
type ShardedDB struct {
	shards []*DB
}

// NewSharded returns a ShardedDB with n empty shards. n < 1 is treated
// as 1.
func NewSharded(n int) *ShardedDB {
	if n < 1 {
		n = 1
	}
	shards := make([]*DB, n)
	for i := range shards {
		shards[i] = New()
	}
	return &ShardedDB{shards: shards}
}

// ShardedFrom wraps existing shard DBs (e.g. loaded from per-shard
// checkpoints) without copying. The caller asserts the series layout
// already matches fingerprint routing for len(parts) shards.
func ShardedFrom(parts []*DB) *ShardedDB {
	if len(parts) == 0 {
		return NewSharded(1)
	}
	return &ShardedDB{shards: parts}
}

// Reshard copies every series of src into a fresh n-shard layout. Used
// when a snapshot written under one shard count is opened under another,
// and by benches to build identical stores at several shard counts.
func Reshard(src Storage, n int) *ShardedDB {
	dst := NewSharded(n)
	for _, sr := range src.AllSeries() {
		// Samples are already in ascending timestamp order per series.
		dst.AppendSamples(sr.Labels, sr.Samples)
	}
	return dst
}

// NumShards returns the shard count.
func (sh *ShardedDB) NumShards() int { return len(sh.shards) }

// Shard returns shard i. Intended for per-shard instrumentation and the
// ingest layer's per-shard checkpointing.
func (sh *ShardedDB) Shard(i int) *DB { return sh.shards[i] }

// shardFor routes a series to its shard: FNV-1a over its key, built in a
// stack buffer so routing an append allocates nothing for typical label
// sets.
func (sh *ShardedDB) shardFor(ls Labels) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var buf [256]byte
	key := ls.AppendKey(buf[:0])
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(len(sh.shards)))
}

// Append routes one sample to its series' shard.
func (sh *ShardedDB) Append(ls Labels, t int64, v float64) error {
	return sh.shards[sh.shardFor(ls)].Append(ls, t, v)
}

// AppendSamples routes a per-series batch to its shard. One lock
// acquisition on one shard; writers for series on different shards
// proceed in parallel.
func (sh *ShardedDB) AppendSamples(ls Labels, samples []Sample) (appended, outOfOrder, duplicate int, err error) {
	return sh.shards[sh.shardFor(ls)].AppendSamples(ls, samples)
}

// fanOut runs fn for every shard index, shard 0 on the calling
// goroutine and the rest concurrently, and waits for all of them.
func (sh *ShardedDB) fanOut(fn func(i int)) {
	if len(sh.shards) == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for i := 1; i < len(sh.shards); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	fn(0)
	wg.Wait()
}

// Select fans the instant selection out to every shard and merges the
// per-shard results back into fingerprint order.
func (sh *ShardedDB) Select(matchers []*Matcher, t, lookback int64) []SeriesPoint {
	parts := make([][]SeriesPoint, len(sh.shards))
	sh.fanOut(func(i int) { parts[i] = sh.shards[i].Select(matchers, t, lookback) })
	return mergeSorted(parts, func(p SeriesPoint) string { return p.Labels.Key() })
}

// SelectRange fans the window selection out and merges.
func (sh *ShardedDB) SelectRange(matchers []*Matcher, start, end int64) []SeriesRange {
	parts := make([][]SeriesRange, len(sh.shards))
	sh.fanOut(func(i int) { parts[i] = sh.shards[i].SelectRange(matchers, start, end) })
	return mergeSorted(parts, func(r SeriesRange) string { return r.Labels.Key() })
}

// SelectSeries fans out and merges by the cached fingerprint.
func (sh *ShardedDB) SelectSeries(matchers []*Matcher) []SeriesView {
	parts := make([][]SeriesView, len(sh.shards))
	sh.fanOut(func(i int) { parts[i] = sh.shards[i].SelectSeries(matchers) })
	return mergeSorted(parts, func(v SeriesView) string { return v.Fingerprint })
}

// SelectBatch resolves the batch on every shard concurrently — each
// shard decodes its chunks under its own read lock — then merges result
// i across shards into fingerprint order.
func (sh *ShardedDB) SelectBatch(hints []SelectHint) [][]SeriesView {
	merged, _ := sh.SelectBatchShards(hints)
	return merged
}

// SelectBatchShards is SelectBatch keeping the per-shard halves:
// perShard[s][i] holds shard s's views for hints[i], and merged[i] is
// their fingerprint-ordered union. The distributed executor uses both —
// partial aggregation reads the per-shard views, the fallback path and
// every other operator read the merged view — off a single decode pass.
func (sh *ShardedDB) SelectBatchShards(hints []SelectHint) (merged [][]SeriesView, perShard [][][]SeriesView) {
	perShard = make([][][]SeriesView, len(sh.shards))
	sh.fanOut(func(i int) { perShard[i] = sh.shards[i].SelectBatch(hints) })
	merged = make([][]SeriesView, len(hints))
	parts := make([][]SeriesView, len(sh.shards))
	for i := range hints {
		for s := range sh.shards {
			parts[s] = perShard[s][i]
		}
		merged[i] = mergeSorted(parts, func(v SeriesView) string { return v.Fingerprint })
	}
	return merged, perShard
}

// AllSeries returns every series across shards in canonical order.
func (sh *ShardedDB) AllSeries() []SeriesRange {
	parts := make([][]SeriesRange, len(sh.shards))
	sh.fanOut(func(i int) { parts[i] = sh.shards[i].AllSeries() })
	return mergeSorted(parts, func(r SeriesRange) string { return r.Labels.Key() })
}

// LabelValues merges the shards' sorted value lists, deduplicated.
func (sh *ShardedDB) LabelValues(name string) []string {
	lists := make([][]string, len(sh.shards))
	sh.fanOut(func(i int) { lists[i] = sh.shards[i].LabelValues(name) })
	return mergeStrings(lists)
}

// MetricNames merges the shards' sorted metric-name lists.
func (sh *ShardedDB) MetricNames() []string {
	lists := make([][]string, len(sh.shards))
	sh.fanOut(func(i int) { lists[i] = sh.shards[i].MetricNames() })
	return mergeStrings(lists)
}

// HasMetric reports whether any shard stores the metric.
func (sh *ShardedDB) HasMetric(name string) bool {
	for _, db := range sh.shards {
		if db.HasMetric(name) {
			return true
		}
	}
	return false
}

// MetricTimeRange combines the per-shard ranges of one metric.
func (sh *ShardedDB) MetricTimeRange(name string) (minT, maxT int64, ok bool) {
	minT, maxT = 1<<63-1, -(1<<63 - 1)
	for _, db := range sh.shards {
		lo, hi, any := db.MetricTimeRange(name)
		if !any {
			continue
		}
		if lo < minT {
			minT = lo
		}
		if hi > maxT {
			maxT = hi
		}
		ok = true
	}
	if !ok {
		return 0, 0, false
	}
	return minT, maxT, true
}

// TimeRange combines the per-shard ingested ranges.
func (sh *ShardedDB) TimeRange() (minT, maxT int64, ok bool) {
	minT, maxT = 1<<63-1, -(1<<63 - 1)
	for _, db := range sh.shards {
		lo, hi, any := db.TimeRange()
		if !any {
			continue
		}
		if lo < minT {
			minT = lo
		}
		if hi > maxT {
			maxT = hi
		}
		ok = true
	}
	if !ok {
		return 0, 0, false
	}
	return minT, maxT, true
}

// HeadTime returns the newest timestamp across shards (0 when empty).
func (sh *ShardedDB) HeadTime() int64 {
	var head int64
	any := false
	for _, db := range sh.shards {
		if _, hi, ok := db.TimeRange(); ok {
			if !any || hi > head {
				head = hi
			}
			any = true
		}
	}
	return head
}

// NumSeries sums the shards' series counts.
func (sh *ShardedDB) NumSeries() int {
	n := 0
	for _, db := range sh.shards {
		n += db.NumSeries()
	}
	return n
}

// NumSamples sums the shards' sample counts.
func (sh *ShardedDB) NumSamples() int64 {
	var n int64
	for _, db := range sh.shards {
		n += db.NumSamples()
	}
	return n
}

// Stats sums the per-shard footprints and recomputes the ratios.
func (sh *ShardedDB) Stats() StorageStats {
	var st StorageStats
	for _, db := range sh.shards {
		s := db.Stats()
		st.Series += s.Series
		st.Samples += s.Samples
		st.Chunks += s.Chunks
		st.ChunkBytes += s.ChunkBytes
	}
	if st.Samples > 0 {
		st.BytesPerSample = float64(st.ChunkBytes) / float64(st.Samples)
		if st.ChunkBytes > 0 {
			st.CompressionRatio = 16 / st.BytesPerSample
		}
	}
	return st
}

// Truncate applies the retention horizon to every shard.
func (sh *ShardedDB) Truncate(keepAfter int64) int64 {
	var dropped int64
	for _, db := range sh.shards {
		dropped += db.Truncate(keepAfter)
	}
	return dropped
}

// Gather copies every series into a single unsharded DB (a sharded
// checkpoint reopened without shards).
func (sh *ShardedDB) Gather() *DB {
	db := New()
	for _, sr := range sh.AllSeries() {
		db.AppendSamples(sr.Labels, sr.Samples)
	}
	return db
}

// mergeSorted k-way merges per-shard slices that are each ordered by
// key(item). Shards partition the fingerprint space, so no key appears
// in two slices and the merge needs no dedup. A linear scan over shard
// heads is fine for the shard counts in play (≤ dozens).
func mergeSorted[T any](parts [][]T, key func(T) string) []T {
	live := 0
	total := 0
	lastIdx := 0
	for i, p := range parts {
		if len(p) > 0 {
			live++
			total += len(p)
			lastIdx = i
		}
	}
	if total == 0 {
		return nil
	}
	if live == 1 {
		return parts[lastIdx]
	}
	out := make([]T, 0, total)
	heads := make([]int, len(parts))
	hkeys := make([]string, len(parts))
	for i, p := range parts {
		if len(p) > 0 {
			hkeys[i] = key(p[0])
		}
	}
	for len(out) < total {
		best := -1
		for i, p := range parts {
			if heads[i] >= len(p) {
				continue
			}
			if best < 0 || hkeys[i] < hkeys[best] {
				best = i
			}
		}
		out = append(out, parts[best][heads[best]])
		heads[best]++
		if heads[best] < len(parts[best]) {
			hkeys[best] = key(parts[best][heads[best]])
		}
	}
	return out
}

// mergeStrings merges sorted string slices, deduplicating — label
// values and metric names can appear on several shards.
func mergeStrings(lists [][]string) []string {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if total == 0 {
		return nil
	}
	all := make([]string, 0, total)
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Strings(all)
	out := all[:1]
	for _, s := range all[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}
