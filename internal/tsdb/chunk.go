package tsdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Gorilla-style chunk encoding: timestamps as varbit delta-of-delta,
// values as XOR with a leading/trailing-zero window (Facebook's Gorilla
// paper, the scheme Prometheus chunks use). A chunk is an immutable byte
// string once sealed; the open head chunk keeps the encoder state needed
// to append in O(1) without re-reading the stream.
//
// Stream layout (bit-packed, big-endian within each field):
//
//	sample 0:  zigzag-varint t0, 64 raw value bits
//	sample 1:  uvarint (t1-t0), XOR-encoded value
//	sample i:  varbit dod = (ti - ti-1) - (ti-1 - ti-2), XOR-encoded value
//
// dod varbit buckets ('0' = dod 0; prefix + zigzag(dod) in N bits):
//
//	'0'                  dod == 0
//	'10'   + 14 bits     zigzag(dod) < 2^14
//	'110'  + 17 bits     zigzag(dod) < 2^17
//	'1110' + 20 bits     zigzag(dod) < 2^20
//	'1111' + 64 bits     anything else
//
// XOR value encoding:
//
//	'0'                        value identical to previous
//	'10' + meaningful bits     reuse previous leading/trailing window
//	'11' + 5b leading + 6b count + meaningful bits   new window
//
// A meaningful-bit count of 64 is stored as 0 (it cannot fit in 6 bits).

// chunkCapacity is the sample count at which the head chunk is sealed.
// 120 matches Prometheus: two hours of 1-minute scrapes, small enough
// that decoding one chunk for a point lookup stays cheap.
const chunkCapacity = 120

// chunk is a sealed, immutable, compressed run of samples.
type chunk struct {
	data       []byte
	count      int
	minT, maxT int64
}

// bwriter is an append-only bit stream writer.
type bwriter struct {
	b []byte
	// free is the number of writable bits remaining in the last byte of b
	// (0 when b is empty or the last byte is full). Free bits are zero.
	free uint8
}

// writeBits writes the low n bits of v (n ≤ 64), most significant first.
// A field that fits in the 8 bytes from the last, partly written byte on
// is one big-endian 8-byte store over them, into b's spare capacity past
// its length; a longer one is two.
func (w *bwriter) writeBits(v uint64, n int) {
	at, used := len(w.b), 0
	if w.free > 0 {
		at, used = at-1, 8-int(w.free)
	}
	if used+n > 64 {
		w.writeBits(v>>32, n-32)
		w.writeBits(v, 32)
		return
	}
	v &= math.MaxUint64 >> (64 - uint(n))
	if cap(w.b)-at < 8 {
		w.b = slices.Grow(w.b, 8)
	}
	window := w.b[at : at+8]
	var last uint64
	if used > 0 {
		last = uint64(window[0]) << 56
	}
	binary.BigEndian.PutUint64(window, last|v<<uint(64-used-n))
	end := used + n
	w.b = w.b[:at+(end+7)/8]
	w.free = uint8(-end & 7)
}

// writeFields writes the n1-bit field f1, then the n2-bit field f2, in one
// write when they fit in 64 bits.
func (w *bwriter) writeFields(f1 uint64, n1 int, f2 uint64, n2 int) {
	if n1+n2 > 64 {
		w.writeBits(f1, n1)
		w.writeBits(f2, n2)
		return
	}
	w.writeBits(f1<<uint(n2)|f2&(math.MaxUint64>>(64-uint(n2))), n1+n2)
}

// writeUvarint writes v in LEB128 on byte boundaries of the bit stream
// (each byte still lands at the current bit offset).
func (w *bwriter) writeUvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	for _, byt := range tmp[:n] {
		w.writeBits(uint64(byt), 8)
	}
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// breader reads a bwriter's stream a 64-bit word at a time; a field
// wider than 57 bits takes two reads, and the last 8 bytes of the stream
// are read a byte at a time.
type breader struct {
	b   []byte
	bit int // absolute bit offset
}

// peek returns the stream from the current bit on, left-aligned and
// zero-padded past its end, and how many of the word's bits are stream
// bits (at least 57 away from the last 8 bytes; 0 or fewer at the end).
func (r *breader) peek() (uint64, int) {
	i, off := r.bit>>3, r.bit&7
	if i+8 <= len(r.b) {
		return binary.BigEndian.Uint64(r.b[i:]) << uint(off), 64 - off
	}
	var w uint64
	for k := i; k < i+8; k++ {
		w <<= 8
		if k < len(r.b) {
			w |= uint64(r.b[k])
		}
	}
	return w << uint(off), (len(r.b)-i)*8 - off
}

// readBits reads an n-bit field (n ≤ 64); n ≤ 0 reads nothing, as a
// corrupt window's negative width must.
func (r *breader) readBits(n int) (uint64, error) {
	if n <= 0 {
		return 0, nil
	}
	if n > 57 {
		hi, err := r.readBits(n - 32)
		if err != nil {
			return 0, err
		}
		lo, err := r.readBits(32)
		return hi<<32 | lo, err
	}
	w, avail := r.peek()
	if n > avail {
		return 0, errChunkShort
	}
	r.bit += n
	return w >> uint(64-n), nil
}

func (r *breader) readUvarint() (uint64, error) {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		if shift >= 64 {
			return 0, fmt.Errorf("tsdb: chunk varint overflow")
		}
		byt, err := r.readBits(8)
		if err != nil {
			return 0, err
		}
		v |= (byt & 0x7f) << shift
		if byt&0x80 == 0 {
			return v, nil
		}
	}
}

var errChunkShort = fmt.Errorf("tsdb: chunk stream truncated")

// leadingUnset marks the XOR window as not yet established.
const leadingUnset = 0xff

// chunkAppender is the open head chunk: the bit stream plus the state
// needed to append the next sample without re-reading it.
type chunkAppender struct {
	w                 bwriter
	count             int
	minT              int64
	t                 int64   // last appended timestamp
	v                 float64 // last appended value
	tDelta            uint64
	leading, trailing uint8
}

// newChunkAppender starts a head with room for a few dozen samples, which
// spares the reallocations at 8, 16, 32 and 64 bytes of growing from empty.
func newChunkAppender() *chunkAppender {
	return &chunkAppender{w: bwriter{b: make([]byte, 0, 128)}, leading: leadingUnset}
}

// append adds a sample. The caller guarantees t is strictly greater than
// the previous sample's timestamp.
func (a *chunkAppender) append(t int64, v float64) {
	switch a.count {
	case 0:
		a.w.writeUvarint(zigzag(t))
		a.w.writeBits(math.Float64bits(v), 64)
		a.minT = t
	case 1:
		a.tDelta = uint64(t - a.t)
		a.w.writeUvarint(a.tDelta)
		a.writeXOR(0, 0, v)
	default:
		delta := uint64(t - a.t)
		dod := int64(delta) - int64(a.tDelta)
		a.tDelta = delta
		zz := zigzag(dod)
		// A bucket's prefix and payload are one field, which rides with
		// the value's first.
		switch {
		case dod == 0:
			a.writeXOR(0, 1, v)
		case zz < 1<<14:
			a.writeXOR(0b10<<14|zz, 2+14, v)
		case zz < 1<<17:
			a.writeXOR(0b110<<17|zz, 3+17, v)
		case zz < 1<<20:
			a.writeXOR(0b1110<<20|zz, 4+20, v)
		default:
			a.w.writeFields(0b1111, 4, zz, 64)
			a.writeXOR(0, 0, v)
		}
	}
	a.t, a.v = t, v
	a.count++
}

// writeXOR writes the n-bit (n ≤ 24) timestamp field dod, then v XORed
// with the previous value.
func (a *chunkAppender) writeXOR(dod uint64, n int, v float64) {
	xor := math.Float64bits(v) ^ math.Float64bits(a.v)
	if xor == 0 {
		a.w.writeBits(dod<<1, n+1) // '0'
		return
	}
	leading := uint8(bits.LeadingZeros64(xor))
	trailing := uint8(bits.TrailingZeros64(xor))
	// 5 bits cap the storable leading-zero count at 31.
	if leading > 31 {
		leading = 31
	}
	if a.leading != leadingUnset && leading >= a.leading && trailing >= a.trailing {
		// '10', then the meaningful bits in the previous window.
		a.w.writeFields(dod<<2|0b10, n+2, xor>>a.trailing, 64-int(a.leading)-int(a.trailing))
		return
	}
	a.leading, a.trailing = leading, trailing
	sig := 64 - int(leading) - int(trailing)
	// '11', 5 bits of leading zeros and 6 of count (sig is in [1,64]; 64 is
	// stored as 0), then the meaningful bits.
	a.w.writeFields(dod<<13|0b11<<11|uint64(leading)<<6|uint64(sig&63), n+13, xor>>trailing, sig)
}

// seal freezes the appender into an immutable chunk.
func (a *chunkAppender) seal() chunk {
	data := make([]byte, len(a.w.b))
	copy(data, a.w.b)
	return chunk{data: data, count: a.count, minT: a.minT, maxT: a.t}
}

// numBytes is the encoded size of the open head so far.
func (a *chunkAppender) numBytes() int { return len(a.w.b) }

// chunkIter decodes a chunk stream. The zero value is invalid; use
// newChunkIter.
type chunkIter struct {
	r                 breader
	total             int
	read              int
	t                 int64
	v                 float64
	tDelta            uint64
	leading, trailing uint8
	err               error
}

func newChunkIter(data []byte, count int) chunkIter {
	return chunkIter{r: breader{b: data}, total: count, leading: leadingUnset}
}

// dodBits gives a dod bucket's payload width by its count of leading one
// bits.
var dodBits = [5]int{0, 14, 17, 20, 64}

// next decodes the next sample; it returns false at the end of the chunk
// or on corruption (check err). From the third sample on, one peek covers
// the dod bucket and the XOR header.
func (it *chunkIter) next() bool {
	if it.err != nil || it.read >= it.total {
		return false
	}
	switch it.read {
	case 0:
		zz, err := it.r.readUvarint()
		if err != nil {
			it.err = err
			return false
		}
		vbits, err := it.r.readBits(64)
		if err != nil {
			it.err = err
			return false
		}
		it.t, it.v = unzigzag(zz), math.Float64frombits(vbits)
	case 1:
		d, err := it.r.readUvarint()
		if err != nil {
			it.err = err
			return false
		}
		it.tDelta = d
		it.t += int64(d)
		if !it.readXOR(it.r.peek()) {
			return false
		}
	default:
		w, avail := it.r.peek()
		ones := min(bits.LeadingZeros64(^w), 4)
		prefix, width := min(ones+1, 4), dodBits[ones]
		var dod int64
		if width == 64 {
			it.r.bit += prefix
			zz, err := it.r.readBits(64)
			if err != nil {
				it.err = err
				return false
			}
			dod = unzigzag(zz)
			w, avail = it.r.peek()
		} else {
			if prefix+width > avail {
				it.err = errChunkShort
				return false
			}
			if width > 0 {
				dod = unzigzag(w << uint(prefix) >> uint(64-width))
			}
			it.r.bit += prefix + width
			w, avail = w<<uint(prefix+width), avail-prefix-width
		}
		it.tDelta = uint64(int64(it.tDelta) + dod)
		it.t += int64(it.tDelta)
		if !it.readXOR(w, avail) {
			return false
		}
	}
	it.read++
	return true
}

// readXOR decodes a value from its header, the left-aligned w of which
// avail bits are stream bits, then reads the meaningful bits.
func (it *chunkIter) readXOR(w uint64, avail int) bool {
	switch {
	case avail < 1 || (w>>63 == 1 && avail < 2):
		it.err = errChunkShort
		return false
	case w>>63 == 0:
		it.r.bit++
		return true // repeat of previous value
	case w>>62 == 0b11:
		if avail < 13 {
			it.err = errChunkShort
			return false
		}
		lead, sig := int(w>>57&31), int(w>>51&63)
		if sig == 0 {
			sig = 64
		}
		it.leading = uint8(lead)
		it.trailing = uint8(64 - lead - sig)
		it.r.bit += 13
	case it.leading == leadingUnset:
		it.err = fmt.Errorf("tsdb: chunk XOR reuse before a window was set")
		return false
	default:
		it.r.bit += 2
	}
	sig := 64 - int(it.leading) - int(it.trailing)
	xbits, err := it.r.readBits(sig)
	if err != nil {
		it.err = err
		return false
	}
	it.v = math.Float64frombits(math.Float64bits(it.v) ^ xbits<<it.trailing)
	return true
}

// at returns the sample decoded by the last successful next call.
func (it *chunkIter) at() Sample { return Sample{T: it.t, V: it.v} }

// decodeChunk appends every sample of a sealed chunk to dst.
func decodeChunk(c chunk, dst []Sample) ([]Sample, error) {
	return decodeStream(c.data, c.count, dst)
}

// decodeStream appends count samples decoded from data to dst.
func decodeStream(data []byte, count int, dst []Sample) ([]Sample, error) {
	it := newChunkIter(data, count)
	for it.next() {
		dst = append(dst, it.at())
	}
	if it.err != nil {
		return dst, it.err
	}
	if it.read != count {
		return dst, fmt.Errorf("tsdb: chunk decoded %d of %d samples", it.read, count)
	}
	return dst, nil
}

// encodeChunk compresses samples (strictly increasing timestamps) into a
// sealed chunk. Used when re-encoding after a partial truncation.
func encodeChunk(samples []Sample) chunk {
	a := newChunkAppender()
	for _, s := range samples {
		a.append(s.T, s.V)
	}
	return a.seal()
}
