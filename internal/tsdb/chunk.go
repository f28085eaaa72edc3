package tsdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
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
	// (0 when b is empty or the last byte is full).
	free uint8
}

func (w *bwriter) writeBit(bit uint64) {
	if w.free == 0 {
		w.b = append(w.b, 0)
		w.free = 8
	}
	w.free--
	if bit != 0 {
		w.b[len(w.b)-1] |= 1 << w.free
	}
}

// writeBits writes the low n bits of v, most significant first.
func (w *bwriter) writeBits(v uint64, n int) {
	v <<= 64 - uint(n)
	for n >= 8 {
		if w.free == 0 {
			w.b = append(w.b, byte(v>>56))
			v <<= 8
			n -= 8
			continue
		}
		// Split across the partial byte.
		w.b[len(w.b)-1] |= byte(v >> (64 - uint64(w.free)))
		v <<= w.free
		n -= int(w.free)
		w.free = 0
	}
	for n > 0 {
		w.writeBit(v >> 63)
		v <<= 1
		n--
	}
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

// breader reads a bwriter's stream.
type breader struct {
	b   []byte
	bit int // absolute bit offset
}

func (r *breader) readBit() (uint64, error) {
	i := r.bit >> 3
	if i >= len(r.b) {
		return 0, errChunkShort
	}
	v := uint64(r.b[i]>>(7-uint(r.bit&7))) & 1
	r.bit++
	return v, nil
}

func (r *breader) readBits(n int) (uint64, error) {
	var v uint64
	for n > 0 {
		i := r.bit >> 3
		if i >= len(r.b) {
			return 0, errChunkShort
		}
		rem := 8 - (r.bit & 7)
		take := n
		if take > rem {
			take = rem
		}
		chunkBits := uint64(r.b[i]>>(uint(rem-take))) & ((1 << uint(take)) - 1)
		v = v<<uint(take) | chunkBits
		r.bit += take
		n -= take
	}
	return v, nil
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

func newChunkAppender() *chunkAppender {
	return &chunkAppender{leading: leadingUnset}
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
		a.writeXOR(v)
	default:
		delta := uint64(t - a.t)
		dod := int64(delta) - int64(a.tDelta)
		a.tDelta = delta
		zz := zigzag(dod)
		switch {
		case dod == 0:
			a.w.writeBit(0)
		case zz < 1<<14:
			a.w.writeBits(0b10, 2)
			a.w.writeBits(zz, 14)
		case zz < 1<<17:
			a.w.writeBits(0b110, 3)
			a.w.writeBits(zz, 17)
		case zz < 1<<20:
			a.w.writeBits(0b1110, 4)
			a.w.writeBits(zz, 20)
		default:
			a.w.writeBits(0b1111, 4)
			a.w.writeBits(zz, 64)
		}
		a.writeXOR(v)
	}
	a.t, a.v = t, v
	a.count++
}

func (a *chunkAppender) writeXOR(v float64) {
	xor := math.Float64bits(v) ^ math.Float64bits(a.v)
	if xor == 0 {
		a.w.writeBit(0)
		return
	}
	a.w.writeBit(1)
	leading := uint8(bits.LeadingZeros64(xor))
	trailing := uint8(bits.TrailingZeros64(xor))
	// 5 bits cap the storable leading-zero count at 31.
	if leading > 31 {
		leading = 31
	}
	if a.leading != leadingUnset && leading >= a.leading && trailing >= a.trailing {
		a.w.writeBit(0)
		a.w.writeBits(xor>>a.trailing, 64-int(a.leading)-int(a.trailing))
		return
	}
	a.leading, a.trailing = leading, trailing
	sig := 64 - int(leading) - int(trailing)
	a.w.writeBit(1)
	a.w.writeBits(uint64(leading), 5)
	// sig is in [1,64]; 64 is stored as 0.
	a.w.writeBits(uint64(sig&63), 6)
	a.w.writeBits(xor>>trailing, sig)
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

func newChunkIter(data []byte, count int) *chunkIter {
	return &chunkIter{r: breader{b: data}, total: count, leading: leadingUnset}
}

// next decodes the next sample; it returns false at the end of the chunk
// or on corruption (check err).
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
		if !it.readXOR() {
			return false
		}
	default:
		var dod int64
		prefix := 0
		for prefix < 4 {
			b, err := it.r.readBit()
			if err != nil {
				it.err = err
				return false
			}
			if b == 0 {
				break
			}
			prefix++
		}
		var nbits int
		switch prefix {
		case 0:
			nbits = 0
		case 1:
			nbits = 14
		case 2:
			nbits = 17
		case 3:
			nbits = 20
		case 4:
			nbits = 64
		}
		if nbits > 0 {
			zz, err := it.r.readBits(nbits)
			if err != nil {
				it.err = err
				return false
			}
			dod = unzigzag(zz)
		}
		it.tDelta = uint64(int64(it.tDelta) + dod)
		it.t += int64(it.tDelta)
		if !it.readXOR() {
			return false
		}
	}
	it.read++
	return true
}

func (it *chunkIter) readXOR() bool {
	b, err := it.r.readBit()
	if err != nil {
		it.err = err
		return false
	}
	if b == 0 {
		return true // repeat of previous value
	}
	b, err = it.r.readBit()
	if err != nil {
		it.err = err
		return false
	}
	if b == 1 {
		lead, err := it.r.readBits(5)
		if err != nil {
			it.err = err
			return false
		}
		sigRaw, err := it.r.readBits(6)
		if err != nil {
			it.err = err
			return false
		}
		sig := int(sigRaw)
		if sig == 0 {
			sig = 64
		}
		it.leading = uint8(lead)
		it.trailing = uint8(64 - int(lead) - sig)
	} else if it.leading == leadingUnset {
		it.err = fmt.Errorf("tsdb: chunk XOR reuse before a window was set")
		return false
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
