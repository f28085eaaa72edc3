package tsdb

import (
	"fmt"
	"math"
	"testing"
)

// The decoder as it was before it read a 64-bit word at a time: one bit
// or one byte per step. FuzzDecodeMatchesReference holds chunk.go's
// decoder to it, sample for sample and failure for failure.

// refBreader reads a bwriter's stream.
type refBreader struct {
	b   []byte
	bit int // absolute bit offset
}

func (r *refBreader) readBit() (uint64, error) {
	i := r.bit >> 3
	if i >= len(r.b) {
		return 0, errChunkShort
	}
	v := uint64(r.b[i]>>(7-uint(r.bit&7))) & 1
	r.bit++
	return v, nil
}

func (r *refBreader) readBits(n int) (uint64, error) {
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

func (r *refBreader) readUvarint() (uint64, error) {
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

// refChunkIter decodes a chunk stream. The zero value is invalid; use
// newRefChunkIter.
type refChunkIter struct {
	r                 refBreader
	total             int
	read              int
	t                 int64
	v                 float64
	tDelta            uint64
	leading, trailing uint8
	err               error
}

func newRefChunkIter(data []byte, count int) *refChunkIter {
	return &refChunkIter{r: refBreader{b: data}, total: count, leading: leadingUnset}
}

// next decodes the next sample; it returns false at the end of the chunk
// or on corruption (check err).
func (it *refChunkIter) next() bool {
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

func (it *refChunkIter) readXOR() bool {
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
func (it *refChunkIter) at() Sample { return Sample{T: it.t, V: it.v} }

// refDecodeStream appends count samples decoded from data to dst.
func refDecodeStream(data []byte, count int, dst []Sample) ([]Sample, error) {
	it := newRefChunkIter(data, count)
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

// FuzzDecodeMatchesReference decodes arbitrary bytes with arbitrary
// sample counts, corrupt streams included, through chunk.go's decoder and
// the reference above: both must yield the same samples, bit for bit, and
// fail on exactly the same inputs with the same error.
func FuzzDecodeMatchesReference(f *testing.F) {
	var samples []Sample
	for i := 0; i < chunkCapacity; i++ {
		t := int64(i) * 15000
		if i%17 == 0 {
			t += int64(i) << 33 // a 64-bit dod
		}
		v := float64(i % 9)
		switch i % 11 {
		case 3:
			v = math.NaN()
		case 5:
			v = math.Float64frombits(^uint64(0) >> 1) // 64 meaningful bits
		}
		samples = append(samples, Sample{T: t, V: v})
	}
	valid := encodeChunk(samples)
	f.Add(valid.data, valid.count)
	f.Add(valid.data[:len(valid.data)-5], valid.count)
	f.Add(valid.data, valid.count+3)
	f.Add(valid.data[:40], 1<<30)
	f.Add([]byte{0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0x01, 0x80}, 3)             // '10' before any window
	f.Add([]byte{0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0x01, 0xff, 0xff, 0x00}, 3) // leading 31, 63 bits: a negative width
	f.Add([]byte{}, 0)
	f.Add([]byte{0xff}, -1)
	f.Fuzz(func(t *testing.T, data []byte, count int) {
		got, err := decodeStream(data, count, nil)
		want, refErr := refDecodeStream(data, count, nil)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("error %v, reference %v", err, refErr)
		}
		if len(got) != len(want) {
			t.Fatalf("decoded %d samples, reference %d", len(got), len(want))
		}
		for i := range want {
			if got[i].T != want[i].T || math.Float64bits(got[i].V) != math.Float64bits(want[i].V) {
				t.Fatalf("sample %d = %d/%016x, reference %d/%016x", i,
					got[i].T, math.Float64bits(got[i].V), want[i].T, math.Float64bits(want[i].V))
			}
		}
	})
}
