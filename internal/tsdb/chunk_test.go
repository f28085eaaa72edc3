package tsdb

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// roundTrip encodes samples through the appender (sealing exactly like
// Series.append does) and decodes them back.
func roundTrip(t *testing.T, samples []Sample) []Sample {
	t.Helper()
	a := newChunkAppender()
	var chunks []chunk
	for _, s := range samples {
		a.append(s.T, s.V)
		if a.count >= chunkCapacity {
			chunks = append(chunks, a.seal())
			a = newChunkAppender()
		}
	}
	if a.count > 0 {
		chunks = append(chunks, a.seal())
	}
	var out []Sample
	for _, c := range chunks {
		var err error
		out, err = decodeChunk(c, out)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return out
}

// sampleExact compares with bit-exact value equality (NaN payloads
// included): the chunk codec must be lossless.
func sampleExact(t *testing.T, got, want []Sample) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].T != want[i].T {
			t.Fatalf("sample %d: t=%d want %d", i, got[i].T, want[i].T)
		}
		if math.Float64bits(got[i].V) != math.Float64bits(want[i].V) {
			t.Fatalf("sample %d: v bits %016x want %016x", i,
				math.Float64bits(got[i].V), math.Float64bits(want[i].V))
		}
	}
}

// refEncode writes the stream layout of chunk.go's header comment one bit
// at a time, each field on its own, as the encoder did before it wrote
// whole fields: the encoder's bytes must equal these.
func refEncode(samples []Sample) []byte {
	var out []byte
	nbits := 0
	put := func(v uint64, n int) {
		for i := n - 1; i >= 0; i-- {
			if nbits%8 == 0 {
				out = append(out, 0)
			}
			if v>>uint(i)&1 == 1 {
				out[len(out)-1] |= 1 << (7 - nbits%8)
			}
			nbits++
		}
	}
	uvarint := func(v uint64) {
		for _, b := range binary.AppendUvarint(nil, v) {
			put(uint64(b), 8)
		}
	}
	var prev Sample
	var delta uint64
	leading, trailing := -1, 0 // no window yet
	for i, s := range samples {
		switch i {
		case 0:
			uvarint(zigzag(s.T))
			put(math.Float64bits(s.V), 64)
			prev = s
			continue
		case 1:
			delta = uint64(s.T - prev.T)
			uvarint(delta)
		default:
			d := uint64(s.T - prev.T)
			dod := int64(d) - int64(delta)
			delta = d
			zz := zigzag(dod)
			switch {
			case dod == 0:
				put(0, 1)
			case zz < 1<<14:
				put(0b10, 2)
				put(zz, 14)
			case zz < 1<<17:
				put(0b110, 3)
				put(zz, 17)
			case zz < 1<<20:
				put(0b1110, 4)
				put(zz, 20)
			default:
				put(0b1111, 4)
				put(zz, 64)
			}
		}
		xor := math.Float64bits(s.V) ^ math.Float64bits(prev.V)
		prev = s
		if xor == 0 {
			put(0, 1)
			continue
		}
		put(1, 1)
		lead, trail := min(bits.LeadingZeros64(xor), 31), bits.TrailingZeros64(xor)
		if leading >= 0 && lead >= leading && trail >= trailing {
			put(0, 1)
			put(xor>>uint(trailing), 64-leading-trailing)
			continue
		}
		leading, trailing = lead, trail
		put(1, 1)
		put(uint64(lead), 5)
		put(uint64((64-lead-trail)&63), 6)
		put(xor>>uint(trail), 64-lead-trail)
	}
	return out
}

// TestChunkEncodingMatchesBitwiseReference requires the encoder's bytes to
// equal refEncode's on every shape the round-trip tests use, so chunks,
// checkpoints and their sizes are the same whichever writer made them.
func TestChunkEncodingMatchesBitwiseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct {
		name string
		next func(i int, prev Sample) Sample
	}{
		{"regular gauge", func(i int, _ Sample) Sample {
			return Sample{T: int64(i) * 15000, V: 20 + math.Sin(float64(i)/10)}
		}},
		{"integer counter", func(i int, p Sample) Sample {
			return Sample{T: int64(i) * 30000, V: p.V + float64(rng.Intn(25))}
		}},
		{"constant", func(i int, _ Sample) Sample { return Sample{T: int64(i) * 60000, V: 42.5} }},
		{"jitter and gaps", func(_ int, p Sample) Sample {
			step := []int64{1, 15000 + rng.Int63n(100), 3600_000, 1 + rng.Int63n(1<<21), 1 << 40}[rng.Intn(5)]
			return Sample{T: p.T + step, V: rng.NormFloat64() * 1e6}
		}},
		{"full-entropy bits", func(_ int, p Sample) Sample {
			return Sample{T: p.T + 1 + rng.Int63n(1000), V: math.Float64frombits(rng.Uint64())}
		}},
	}
	for _, sh := range shapes {
		samples := []Sample{{T: -50000, V: 0}}
		for i := 1; i < 3*chunkCapacity; i++ {
			samples = append(samples, sh.next(i, samples[i-1]))
		}
		for n := 1; n <= len(samples); n += 1 + n/3 {
			got, want := encodeChunk(samples[:n]).data, refEncode(samples[:n])
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, %d samples: encoder wrote %x, reference %x", sh.name, n, got, want)
			}
		}
	}
}

func TestChunkRoundTripRegular(t *testing.T) {
	var samples []Sample
	for i := 0; i < 500; i++ {
		samples = append(samples, Sample{T: int64(i) * 15000, V: 20 + math.Sin(float64(i)/10)})
	}
	sampleExact(t, roundTrip(t, samples), samples)
}

func TestChunkRoundTripSpecialValues(t *testing.T) {
	nanPayload := math.Float64frombits(0x7ff8000000000042) // NaN with a payload
	samples := []Sample{
		{T: -1000, V: math.NaN()},
		{T: 0, V: math.Inf(1)},
		{T: 1, V: math.Inf(-1)},
		{T: 2, V: nanPayload},
		{T: 3, V: 0.0},
		{T: 4, V: math.Copysign(0, -1)}, // negative zero
		{T: 5, V: math.MaxFloat64},
		{T: 6, V: math.SmallestNonzeroFloat64},
		{T: 1 << 40, V: -math.MaxFloat64},
	}
	sampleExact(t, roundTrip(t, samples), samples)
}

func TestChunkRoundTripCounterResets(t *testing.T) {
	// Counter shape: monotone ramp, reset to zero, ramp again — the value
	// XOR window collapses and re-establishes around each reset.
	var samples []Sample
	v := 0.0
	for i := 0; i < 300; i++ {
		if i%97 == 0 {
			v = 0
		}
		v += float64(i % 13)
		samples = append(samples, Sample{T: int64(i) * 1000, V: v})
	}
	sampleExact(t, roundTrip(t, samples), samples)
}

func TestChunkRoundTripIrregularIntervals(t *testing.T) {
	// Jittered scrape intervals, gaps, and single-millisecond steps stress
	// every delta-of-delta bucket.
	rng := rand.New(rand.NewSource(5))
	ts := int64(-50000)
	var samples []Sample
	for i := 0; i < 400; i++ {
		switch rng.Intn(5) {
		case 0:
			ts += 1
		case 1:
			ts += 15000 + rng.Int63n(100)
		case 2:
			ts += 3600_000 // an hour-long gap
		case 3:
			ts += rng.Int63n(1 << 21) // beyond the 20-bit dod bucket
		default:
			ts += 15000
		}
		samples = append(samples, Sample{T: ts, V: rng.NormFloat64() * 1e6})
	}
	sampleExact(t, roundTrip(t, samples), samples)
}

func TestChunkRoundTripConstantValue(t *testing.T) {
	var samples []Sample
	for i := 0; i < 250; i++ {
		samples = append(samples, Sample{T: int64(i) * 60000, V: 42.5})
	}
	sampleExact(t, roundTrip(t, samples), samples)
	// Constant series at fixed intervals are the best case: after the
	// first two samples every (dod, xor) pair costs 2 bits.
	c := encodeChunk(samples[:120])
	if perSample := float64(len(c.data)) / 120; perSample > 1.0 {
		t.Errorf("constant series costs %.2f bytes/sample, want <= 1", perSample)
	}
}

func TestChunkCompressionOnScrapeShape(t *testing.T) {
	// A realistic counter at a fixed interval (integer-valued increments,
	// the dominant shape of operator metrics) must beat the 16-byte raw
	// representation by well over the 5x acceptance floor. Full-entropy
	// random mantissas would not compress — that is expected of XOR
	// encoding and is covered by the round-trip tests instead.
	var samples []Sample
	rng := rand.New(rand.NewSource(7))
	v := 100.0
	for i := 0; i < chunkCapacity; i++ {
		v += float64(rng.Intn(25))
		samples = append(samples, Sample{T: int64(i) * 15000, V: v})
	}
	c := encodeChunk(samples)
	perSample := float64(len(c.data)) / float64(len(samples))
	if ratio := 16 / perSample; ratio < 5 {
		t.Errorf("compression ratio %.1fx below 5x (%.2f bytes/sample)", ratio, perSample)
	}
}

func TestChunkTruncatedStreamRejected(t *testing.T) {
	var samples []Sample
	for i := 0; i < 50; i++ {
		samples = append(samples, Sample{T: int64(i) * 1000, V: float64(i)})
	}
	c := encodeChunk(samples)
	for cut := 0; cut < len(c.data); cut += 7 {
		if _, err := decodeStream(c.data[:cut], c.count, nil); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(c.data))
		}
	}
}

// FuzzChunkRoundTrip feeds arbitrary (delta, value-bits) streams through
// encode→decode and requires sample-exact recovery. Seeds cover the
// simulator's scrape shapes: regular intervals, counter resets, NaN/Inf.
func FuzzChunkRoundTrip(f *testing.F) {
	mk := func(samples []Sample) []byte {
		var b []byte
		for _, s := range samples {
			b = binary.AppendVarint(b, s.T)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.V))
		}
		return b
	}
	// Regular 15s scrape of a smooth gauge (the fivegsim shape).
	var regular []Sample
	for i := 0; i < 130; i++ {
		regular = append(regular, Sample{T: 15000, V: 55 + math.Sin(float64(i))})
	}
	f.Add(mk(regular))
	f.Add(mk([]Sample{{T: 0, V: math.NaN()}, {T: 1, V: math.Inf(1)}, {T: 1 << 30, V: math.Inf(-1)}}))
	f.Add(mk([]Sample{{T: 1000, V: 100}, {T: 1000, V: 0}, {T: 1000, V: 13}})) // counter reset
	f.Add(mk([]Sample{{T: 1, V: 1}, {T: 2, V: 1}, {T: 3600000, V: 1.0000001}}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Interpret raw as a (varint time delta, 8-byte value bits) stream;
		// deltas are clamped positive so timestamps strictly increase.
		var samples []Sample
		ts := int64(0)
		for len(raw) >= 9 && len(samples) < 4*chunkCapacity {
			d, n := binary.Varint(raw)
			if n <= 0 || len(raw[n:]) < 8 {
				break
			}
			if d < 0 {
				d = -d
			}
			if d == 0 {
				d = 1
			}
			const maxStep = int64(1) << 40
			if d > maxStep {
				d = maxStep
			}
			ts += d
			samples = append(samples, Sample{T: ts, V: math.Float64frombits(binary.LittleEndian.Uint64(raw[n : n+8]))})
			raw = raw[n+8:]
		}
		if len(samples) == 0 {
			return
		}
		got := roundTrip(t, samples)
		sampleExact(t, got, samples)
		if enc, ref := encodeChunk(samples).data, refEncode(samples); !bytes.Equal(enc, ref) {
			t.Fatalf("encoder wrote %x, reference %x", enc, ref)
		}
	})
}
