package tsdb

import (
	"fmt"
	"math"
)

// Series is a label set and its samples, held as Gorilla-compressed
// chunks: a list of sealed immutable chunks plus an open head appender.
// All reads decode; all decoded slices handed out are freshly allocated,
// so they stay valid (and immutable) across concurrent appends and
// truncations.
type Series struct {
	Labels Labels
	// fp caches Labels.Key(), computed once when the series is created, so
	// selection and sorting never rebuild the fingerprint string.
	fp string
	// ref is the series' slot in DB.byRef.
	ref SeriesRef

	// chunks are sealed compressed runs in time order; head is the open
	// appender new samples land in (nil until the first append after a
	// seal or restore).
	chunks []chunk
	head   *chunkAppender

	total int     // samples across chunks + head
	lastT int64   // newest timestamp (undefined when total == 0)
	lastV float64 // newest value (undefined when total == 0)
}

// append adds one sample, sealing the head chunk when it reaches
// capacity. The caller (DB) holds the write lock and has already enforced
// the ordering policy, so t is strictly greater than lastT.
func (s *Series) append(t int64, v float64) {
	if s.head == nil {
		s.head = newChunkAppender()
	}
	s.head.append(t, v)
	if s.head.count >= chunkCapacity {
		s.chunks = append(s.chunks, s.head.seal())
		s.head = nil
	}
	s.total++
	s.lastT, s.lastV = t, v
}

// minTime returns the oldest stored timestamp; ok is false when empty.
func (s *Series) minTime() (int64, bool) {
	if len(s.chunks) > 0 {
		return s.chunks[0].minT, true
	}
	if s.head != nil && s.head.count > 0 {
		return s.head.minT, true
	}
	return 0, false
}

// mustDecode decodes count samples of a chunk stream, appending to dst.
// The streams were written by this process (or validated at load), so a
// decode failure is a storage invariant violation, not an input error.
func mustDecode(data []byte, count int, dst []Sample) []Sample {
	dst, err := decodeStream(data, count, dst)
	if err != nil {
		panic(fmt.Sprintf("tsdb: internal chunk corruption: %v", err))
	}
	return dst
}

// decodeRange appends every sample with minT <= T <= maxT to dst, in time
// order, skipping chunks entirely outside the window.
func (s *Series) decodeRange(minT, maxT int64, dst []Sample) []Sample {
	appendInRange := func(data []byte, count int, cMin, cMax int64) {
		if count == 0 || cMax < minT || cMin > maxT {
			return
		}
		if cMin >= minT && cMax <= maxT {
			dst = mustDecode(data, count, dst)
			return
		}
		from := len(dst)
		dst = mustDecode(data, count, dst)
		// Filter in place: keep only the in-window samples.
		keep := dst[:from]
		for _, smp := range dst[from:] {
			if smp.T >= minT && smp.T <= maxT {
				keep = append(keep, smp)
			}
		}
		dst = keep
	}
	for _, c := range s.chunks {
		appendInRange(c.data, c.count, c.minT, c.maxT)
	}
	if s.head != nil && s.head.count > 0 {
		appendInRange(s.head.w.b, s.head.count, s.head.minT, s.head.t)
	}
	return dst
}

// allSamples decodes the full series into a fresh slice.
func (s *Series) allSamples() []Sample {
	return s.decodeRange(math.MinInt64, math.MaxInt64, make([]Sample, 0, s.total))
}

// lastBefore returns the newest sample with T <= t and at least t-lookback,
// implementing Prometheus instant-lookup staleness semantics.
func (s *Series) lastBefore(t, lookback int64) (Sample, bool) {
	if s.total == 0 {
		return Sample{}, false
	}
	// Fast path: the query instant is at or past the series head, which is
	// the overwhelmingly common case for live queries.
	if t >= s.lastT {
		if s.lastT < t-lookback {
			return Sample{}, false
		}
		return Sample{T: s.lastT, V: s.lastV}, true
	}
	window := s.decodeRange(t-lookback, t, nil)
	if len(window) == 0 {
		return Sample{}, false
	}
	return window[len(window)-1], true
}

// window returns the samples with start < T <= end (Prometheus range
// selector semantics: left-open, right-closed) as a fresh slice.
func (s *Series) window(start, end int64) []Sample {
	if start >= end {
		return nil
	}
	// Integer-millisecond timestamps make T > start equal to T >= start+1.
	return s.decodeRange(start+1, end, nil)
}

// clampedSamples returns the samples with minT <= T <= maxT as a fresh
// slice (the SelectBatch hint clamp), sized from the counts of the chunks
// that overlap the range so decoding never grows it.
func (s *Series) clampedSamples(minT, maxT int64) []Sample {
	n := 0
	for _, c := range s.chunks {
		if c.count > 0 && c.maxT >= minT && c.minT <= maxT {
			n += c.count
		}
	}
	if h := s.head; h != nil && h.count > 0 && h.t >= minT && h.minT <= maxT {
		n += h.count
	}
	return s.decodeRange(minT, maxT, make([]Sample, 0, n))
}

// numBytes is the compressed footprint of the series' sample data.
func (s *Series) numBytes() int {
	n := 0
	for _, c := range s.chunks {
		n += len(c.data)
	}
	if s.head != nil {
		n += s.head.numBytes()
	}
	return n
}

// numChunks counts sealed chunks plus the open head.
func (s *Series) numChunks() int {
	n := len(s.chunks)
	if s.head != nil && s.head.count > 0 {
		n++
	}
	return n
}

// replaceSamples rebuilds the series' chunks from samples (strictly
// increasing timestamps), used by truncation's partial re-encode. Full
// chunks are sealed; the remainder becomes the new head so appends keep
// extending an open chunk.
func (s *Series) replaceSamples(samples []Sample) {
	s.chunks = s.chunks[:0]
	s.head = nil
	s.total = 0
	for _, smp := range samples {
		s.append(smp.T, smp.V)
	}
}

// sealedChunks returns the series' chunk list with the open head sealed
// as a final chunk (the on-disk form used by chunked snapshots). The
// in-memory head is left untouched.
func (s *Series) sealedChunks() []chunk {
	out := make([]chunk, 0, len(s.chunks)+1)
	out = append(out, s.chunks...)
	if s.head != nil && s.head.count > 0 {
		out = append(out, s.head.seal())
	}
	return out
}

// restoreChunks installs pre-validated sealed chunks (snapshot load). The
// caller guarantees the chunks are in time order with lastT/lastV taken
// from the final decoded sample.
func (s *Series) restoreChunks(chunks []chunk, total int, lastT int64, lastV float64) {
	s.chunks = chunks
	s.head = nil
	s.total = total
	s.lastT, s.lastV = lastT, lastV
}
