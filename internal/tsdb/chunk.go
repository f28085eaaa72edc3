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
func (r *breader) peek() (uint64, int) { return peekAt(r.b, r.bit) }

// peekAt is peek at bit offset bit of b.
func peekAt(b []byte, bit int) (uint64, int) {
	i, off := bit>>3, bit&7
	if i+8 <= len(b) {
		return binary.BigEndian.Uint64(b[i:]) << uint(off), 64 - off
	}
	return peekTail(b, i, off)
}

// peekTail is peekAt within the last 8 bytes of b.
func peekTail(b []byte, i, off int) (uint64, int) {
	var w uint64
	for k := i; k < i+8; k++ {
		w <<= 8
		if k < len(b) {
			w |= uint64(b[k])
		}
	}
	return w << uint(off), (len(b)-i)*8 - off
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

// chunkDecoder is a chunk stream's decoding state between decode calls.
// The zero value is invalid; use newChunkDecoder.
type chunkDecoder struct {
	b                 []byte
	bit               int // absolute bit offset into b
	read, total       int // samples decoded, samples in the stream
	t                 int64
	v                 uint64 // the last value's bits
	tDelta            uint64
	leading, trailing uint8
}

func newChunkDecoder(data []byte, count int) chunkDecoder {
	return chunkDecoder{b: data, total: count, leading: leadingUnset}
}

// done reports whether every sample of the stream has been decoded.
func (d *chunkDecoder) done() bool { return d.read >= d.total }

// dodBits gives a dod bucket's payload width by its count of leading one
// bits.
var dodBits = [5]int{0, 14, 17, 20, 64}

// errXORReuse reports a value that reuses the XOR window before one was
// set.
var errXORReuse = fmt.Errorf("tsdb: chunk XOR reuse before a window was set")

// decode appends the stream's next samples to dst's spare capacity. It
// stops when that is full, when the stream ends, or after the first
// sample later than stop. It is the only decoding loop: the state lives
// in locals while it runs, and from the third sample on one peek covers
// the dod bucket and the XOR header. On corruption it returns the
// samples decoded before it and the error, and d is spent.
func (d *chunkDecoder) decode(dst []Sample, stop int64) ([]Sample, error) {
	b, bit, read := d.b, d.bit, d.read
	t, v, tDelta := d.t, d.v, d.tDelta
	leading, trailing := d.leading, d.trailing
	var err error
	for read < d.total && len(dst) < cap(dst) {
		var w uint64
		var avail int
		switch read {
		case 0:
			r := breader{b: b, bit: bit}
			var zz uint64
			if zz, err = r.readUvarint(); err == nil {
				v, err = r.readBits(64)
			}
			t, bit = unzigzag(zz), r.bit
		case 1:
			r := breader{b: b, bit: bit}
			tDelta, err = r.readUvarint()
			t += int64(tDelta)
			bit = r.bit
			w, avail = peekAt(b, bit)
		default:
			if i := bit >> 3; i+8 <= len(b) {
				w, avail = binary.BigEndian.Uint64(b[i:])<<uint(bit&7), 64-bit&7
			} else {
				w, avail = peekTail(b, i, bit&7)
			}
			ones := min(bits.LeadingZeros64(^w), 4)
			prefix, width := min(ones+1, 4), dodBits[ones]
			var dod int64
			if width == 64 {
				r := breader{b: b, bit: bit + prefix}
				var zz uint64
				zz, err = r.readBits(64)
				dod, bit = unzigzag(zz), r.bit
				w, avail = peekAt(b, bit)
			} else if prefix+width > avail {
				err = errChunkShort
			} else {
				if width > 0 {
					dod = unzigzag(w << uint(prefix) >> uint(64-width))
				}
				bit += prefix + width
				w, avail = w<<uint(prefix+width), avail-prefix-width
			}
			tDelta = uint64(int64(tDelta) + dod)
			t += int64(tDelta)
		}
		if err != nil {
			break
		}
		// From the second sample on, the XOR-encoded value: its header is
		// the left-aligned w, of which avail bits are stream bits, and so
		// are its meaningful bits when w holds them all.
		if read > 0 {
			if avail < 1 || (w>>63 == 1 && avail < 2) {
				err = errChunkShort
				break
			}
			if w>>63 == 0 { // '0' repeats the previous value
				bit++
			} else {
				head := 2
				if w>>62 == 0b11 {
					if avail < 13 {
						err = errChunkShort
						break
					}
					lead, sig := int(w>>57&31), int(w>>51&63)
					if sig == 0 {
						sig = 64
					}
					leading, trailing = uint8(lead), uint8(64-lead-sig)
					head = 13
				} else if leading == leadingUnset {
					err = errXORReuse
					break
				}
				bit += head
				var xor uint64
				if sig := 64 - int(leading) - int(trailing); sig > 0 && sig <= avail-head {
					xor = w << uint(head) >> uint(64-sig)
					bit += sig
				} else {
					r := breader{b: b, bit: bit}
					if xor, err = r.readBits(sig); err != nil {
						break
					}
					bit = r.bit
				}
				v ^= xor << trailing
			}
		}
		dst = append(dst, Sample{T: t, V: math.Float64frombits(v)})
		read++
		if t > stop {
			break
		}
	}
	d.bit, d.read = bit, read
	d.t, d.v, d.tDelta = t, v, tDelta
	d.leading, d.trailing = leading, trailing
	if err != nil {
		d.total = read
	}
	return dst, err
}

// decodeChunk appends every sample of a sealed chunk to dst.
func decodeChunk(c chunk, dst []Sample) ([]Sample, error) {
	return decodeStream(c.data, c.count, dst)
}

// decodeStream appends count samples decoded from data to dst, growing
// it by at most a chunk's capacity ahead of what is decoded.
func decodeStream(data []byte, count int, dst []Sample) ([]Sample, error) {
	d := newChunkDecoder(data, count)
	for !d.done() {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, min(d.total-d.read, chunkCapacity))
		}
		var err error
		if dst, err = d.decode(dst, math.MaxInt64); err != nil {
			return dst, err
		}
	}
	if d.read != count {
		return dst, fmt.Errorf("tsdb: chunk decoded %d of %d samples", d.read, count)
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
