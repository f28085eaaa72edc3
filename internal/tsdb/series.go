package tsdb

import (
	"fmt"
	"math"
	"slices"
)

// Series is a label set and its samples, held as Gorilla-compressed
// chunks: a list of sealed immutable chunks plus an open head appender.
// Reads under the lock either decode into fresh slices or snapshot: a
// snapshot shares the sealed chunks, which never change, and copies the
// head's bytes, which appends rewrite. Readers decode snapshots later,
// outside the lock. Either way what a reader sees stays valid and
// unchanged across concurrent appends and truncations.
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

// overlapping calls f on every chunk of s holding samples in [minT, maxT],
// oldest first. The open head comes last, as a chunk over its live bytes
// (head true): only the lock f runs under keeps those still.
func (s *Series) overlapping(minT, maxT int64, f func(c chunk, head bool)) {
	for _, c := range s.chunks {
		if c.count > 0 && c.maxT >= minT && c.minT <= maxT {
			f(c, false)
		}
	}
	if h := s.head; h != nil && h.count > 0 && h.t >= minT && h.minT <= maxT {
		f(chunk{data: h.w.b, count: h.count, minT: h.minT, maxT: h.t}, true)
	}
}

// appendDecoded appends the samples of c with minT <= T <= maxT to dst.
func appendDecoded(dst []Sample, c chunk, minT, maxT int64) []Sample {
	from := len(dst)
	dst = mustDecode(c.data, c.count, dst)
	if c.minT >= minT && c.maxT <= maxT {
		return dst
	}
	// Filter in place: keep only the in-window samples.
	keep := dst[:from]
	for _, smp := range dst[from:] {
		if smp.T >= minT && smp.T <= maxT {
			keep = append(keep, smp)
		}
	}
	return keep
}

// decodeRange appends every sample with minT <= T <= maxT to dst, in time
// order, skipping chunks entirely outside the window.
func (s *Series) decodeRange(minT, maxT int64, dst []Sample) []Sample {
	s.overlapping(minT, maxT, func(c chunk, _ bool) { dst = appendDecoded(dst, c, minT, maxT) })
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

// Reader streams one SelectBatch view's snapshot forward: it decodes
// samples only as reads reach them, and keeps only the samples at or
// above the latest read's floor. Floors and ends must not decrease from
// one read to the next. A Window read after the first decodes a buffer
// at a time, into the spare room of the buffer NewReaders gave it; the
// first read, and every Latest, decodes only up to the first sample past
// its end, so an instant query decodes no more than it uses.
type Reader struct {
	chunks     []chunk      // snapshot chunks not yet started
	dec        chunkDecoder // decoder over the current chunk
	minT, maxT int64        // the view's clamp
	// buf[off:hi] is the latest read's window, in time order; buf[hi:]
	// are kept samples past its end.
	buf     []Sample
	off, hi int
	// drop is the time of the newest decoded sample lower than the one
	// kept before it.
	drop  int64
	ahead bool // a Window read has run: decode into the spare room
	spent bool
}

// NewReaders returns a Reader for every view. Their buffers share one
// slab, which gives each series room for its samples in about span ms, a
// quarter as many again and 4 more: reads decode ahead into that slack,
// and move their kept samples to the front of a full buffer. A read that
// needs more room moves that series' buffer to the heap.
func NewReaders(views []SeriesView, span int64) []Reader {
	rs := make([]Reader, len(views))
	total := 0
	for i := range views {
		total += readerRoom(&views[i], span)
	}
	slab := make([]Sample, total)
	for i := range views {
		v := &views[i]
		n := readerRoom(v, span)
		rs[i] = Reader{chunks: v.chunks, minT: v.minT, maxT: v.maxT, buf: slab[:0:n], drop: math.MinInt64}
		slab = slab[n:]
	}
	return rs
}

// readerRoom is the buffer room NewReaders gives v for reads spanning
// span ms, estimated from the density of its snapshot.
func readerRoom(v *SeriesView, span int64) int {
	n := 0
	for _, c := range v.chunks {
		n += c.count
	}
	if n == 0 {
		return 0
	}
	est := n
	if lo, hi := v.chunks[0].minT, v.chunks[len(v.chunks)-1].maxT; span < hi-lo {
		est = int(float64(n-1)*float64(span)/float64(hi-lo)) + 1
	}
	return est + est/4 + 4
}

// Window returns the samples with floor <= T <= end, decoding forward as
// far as end needs. The slice is valid until the next read, and Last
// returns it again until then.
func (r *Reader) Window(floor, end int64) []Sample {
	r.read(floor, end, false)
	r.ahead = true
	return r.buf[r.off:r.hi]
}

// Last returns the window the latest Window read returned.
func (r *Reader) Last() []Sample { return r.buf[r.off:r.hi] }

// LastDrop returns the time of the newest sample decoded so far that is
// lower than the kept sample before it, or math.MinInt64. Every pair of
// neighbours inside a window is checked when its later sample is
// decoded, since its earlier one is at or above every floor read until
// then. So a window whose first sample is at or after LastDrop holds no
// drop: as a counter, no reset.
func (r *Reader) LastDrop() int64 { return r.drop }

// Latest returns the newest sample with floor <= T <= end, and keeps no
// sample older than it.
func (r *Reader) Latest(floor, end int64) (Sample, bool) {
	r.read(floor, end, true)
	if r.hi == r.off {
		return Sample{}, false
	}
	r.off = r.hi - 1
	return r.buf[r.off], true
}

// read drops the kept samples below floor, decodes until a sample past
// end is kept or the snapshot is spent, and sets hi to the end of the
// window [floor, end]; latest drops all but the newest sample of it as it
// decodes.
func (r *Reader) read(floor, end int64, latest bool) {
	lo := max(floor, r.minT)
	r.trim(lo)
	stop := end
	if r.ahead && !latest {
		stop = math.MaxInt64
	}
	for !r.spent && (r.off == len(r.buf) || r.buf[len(r.buf)-1].T <= end) {
		if r.dec.done() && !r.nextChunk(floor) {
			break
		}
		if len(r.buf) == cap(r.buf) {
			r.compact()
		}
		from := len(r.buf)
		buf, err := r.dec.decode(r.buf, stop)
		if err != nil {
			panic(fmt.Sprintf("tsdb: internal chunk corruption: %v", err))
		}
		if n := len(buf); buf[n-1].T > r.maxT {
			for n > from && buf[n-1].T > r.maxT {
				n--
			}
			buf, r.spent = buf[:n], true
		}
		for i := len(buf) - 1; i >= max(from, r.off+1); i-- {
			if buf[i].V < buf[i-1].V {
				r.drop = buf[i].T
				break
			}
		}
		r.buf = buf
		r.trim(lo)
		if n := len(r.buf); latest && n > r.off {
			if r.buf[n-1].T > end {
				n--
			}
			r.off = max(r.off, n-1)
		}
	}
	r.hi = max(r.hi, r.off)
	for r.hi < len(r.buf) && r.buf[r.hi].T <= end {
		r.hi++
	}
}

// trim drops the kept samples below lo.
func (r *Reader) trim(lo int64) {
	for r.off < len(r.buf) && r.buf[r.off].T < lo {
		r.off++
	}
}

// compact moves the kept samples to the front of the full buffer, or
// moves the buffer to the heap with room for more when none can go.
func (r *Reader) compact() {
	if r.off == 0 {
		r.buf = slices.Grow(r.buf, 1)
		return
	}
	r.buf = r.buf[:copy(r.buf, r.buf[r.off:])]
	r.hi = max(r.hi-r.off, 0)
	r.off = 0
}

// nextChunk starts decoding the snapshot's next chunk that does not end
// before floor, skipping the others undecoded; it reports false, and
// marks the reader spent, when there is none.
func (r *Reader) nextChunk(floor int64) bool {
	for len(r.chunks) > 0 && r.chunks[0].maxT < floor {
		r.chunks = r.chunks[1:]
	}
	if len(r.chunks) == 0 {
		r.spent = true
		return false
	}
	r.dec = newChunkDecoder(r.chunks[0].data, r.chunks[0].count)
	r.chunks = r.chunks[1:]
	return true
}
