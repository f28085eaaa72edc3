package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"slices"
	"strconv"
	"testing"

	"dio/internal/tsdb"
)

func mkSeries(name string, extra map[string]string, samples ...tsdb.Sample) TimeSeries {
	m := map[string]string{"__name__": name}
	for k, v := range extra {
		m[k] = v
	}
	return TimeSeries{Labels: tsdb.FromMap(m), Samples: samples}
}

func sameSeries(t *testing.T, got, want []TimeSeries) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d series, want %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i].Labels, want[i].Labels) {
			t.Fatalf("series %d labels %s, want %s", i, got[i].Labels, want[i].Labels)
		}
		if len(got[i].Samples) != len(want[i].Samples) {
			t.Fatalf("series %d: %d samples, want %d", i, len(got[i].Samples), len(want[i].Samples))
		}
		for j, s := range want[i].Samples {
			g := got[i].Samples[j]
			if g.T != s.T || math.Float64bits(g.V) != math.Float64bits(s.V) {
				t.Fatalf("series %d sample %d = %+v, want %+v", i, j, g, s)
			}
		}
	}
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	in := []TimeSeries{
		mkSeries("up", map[string]string{"job": "ue-sim", "instance": "a"},
			tsdb.Sample{T: -5000, V: 1}, tsdb.Sample{T: 0, V: 0}, tsdb.Sample{T: 15000, V: 1}),
		// The binary codec must carry what JSON cannot.
		mkSeries("weird", nil,
			tsdb.Sample{T: 1, V: math.NaN()},
			tsdb.Sample{T: 2, V: math.Inf(1)},
			tsdb.Sample{T: 3, V: math.Inf(-1)},
			tsdb.Sample{T: 1 << 44, V: math.Copysign(0, -1)}),
		mkSeries("empty", nil),
	}
	out, err := DecodeBinary(EncodeBinary(in))
	if err != nil {
		t.Fatal(err)
	}
	sameSeries(t, out, in)
}

func TestBinaryCodecRejectsCorruption(t *testing.T) {
	raw := EncodeBinary([]TimeSeries{
		mkSeries("m", map[string]string{"x": "y"}, tsdb.Sample{T: 1000, V: 2}, tsdb.Sample{T: 2000, V: 3}),
	})
	for cut := 0; cut < len(raw); cut++ {
		if _, err := DecodeBinary(raw[:cut]); !errors.Is(err, ErrBadWritePayload) {
			t.Fatalf("truncation at %d accepted: %v", cut, err)
		}
	}
	for off := 0; off < len(raw); off++ {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x20
		if _, err := DecodeBinary(mut); !errors.Is(err, ErrBadWritePayload) {
			t.Fatalf("flipped byte %d accepted: %v", off, err)
		}
	}
}

func TestBinaryCodecRejectsBadSemantics(t *testing.T) {
	cases := map[string][]TimeSeries{
		"unsorted labels": {{
			Labels:  tsdb.Labels{{Name: "b", Value: "1"}, {Name: "__name__", Value: "m"}},
			Samples: []tsdb.Sample{{T: 1, V: 1}},
		}},
		"duplicate label": {{
			Labels:  tsdb.Labels{{Name: "__name__", Value: "m"}, {Name: "a", Value: "1"}, {Name: "a", Value: "2"}},
			Samples: []tsdb.Sample{{T: 1, V: 1}},
		}},
		"no metric name": {{
			Labels:  tsdb.Labels{{Name: "job", Value: "x"}},
			Samples: []tsdb.Sample{{T: 1, V: 1}},
		}},
		"unordered samples": {
			mkSeries("m", nil, tsdb.Sample{T: 2, V: 1}, tsdb.Sample{T: 1, V: 1}),
		},
		"duplicate timestamps": {
			mkSeries("m", nil, tsdb.Sample{T: 2, V: 1}, tsdb.Sample{T: 2, V: 2}),
		},
	}
	for name, in := range cases {
		if _, err := DecodeBinary(EncodeBinary(in)); !errors.Is(err, ErrBadWritePayload) {
			t.Errorf("%s: err = %v, want ErrBadWritePayload", name, err)
		}
	}
}

// TestUvarintMatchesBinary holds uvarint to binary.Uvarint plus the
// minimality rule, after a one-byte prefix: every value's encoding, each
// cut short, each padded to a longer non-minimal form, and ten- and
// eleven-byte overflows. A refused varint leaves pos where it was and
// reports that offset.
func TestUvarintMatchesBinary(t *testing.T) {
	var inputs [][]byte
	for _, v := range []uint64{0, 1, 127, 128, 300, 16383, 16384, 1 << 35, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		enc := binary.AppendUvarint(nil, v)
		for n := 0; n <= len(enc); n++ {
			inputs = append(inputs, enc[:n])
		}
		padded := append(slices.Clone(enc), 0)
		padded[len(enc)-1] |= 0x80
		inputs = append(inputs, padded)
	}
	inputs = append(inputs,
		[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		[]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	for _, in := range inputs {
		b := append([]byte{0x7f}, in...)
		want, n := binary.Uvarint(in)
		ok := n > 0 && (n == 1 || in[n-1] != 0)
		pos := 1
		got, err := uvarint(b, &pos)
		switch {
		case ok && (err != nil || got != want || pos != 1+n):
			t.Errorf("% x: got %d, %v at %d, want %d at %d", in, got, err, pos, want, 1+n)
		case !ok && (!errors.Is(err, ErrBadWritePayload) || pos != 1 || err.Error() != ErrBadWritePayload.Error()+": truncated or non-minimal varint at offset 1"):
			t.Errorf("% x: got %d, %v at %d, want a refusal at offset 1", in, got, err, pos)
		}
	}
}

func TestJSONCodecRoundTrip(t *testing.T) {
	in := []TimeSeries{
		mkSeries("up", map[string]string{"job": "gnb"},
			tsdb.Sample{T: 1700000000000, V: 1}, tsdb.Sample{T: 1700000015000, V: 0}),
	}
	raw := `{"series":[{"labels":{"__name__":"up","job":"gnb"},"samples":[[1700000000000,1],[1700000015000,0]]}]}`
	out, err := DecodeJSON(bytes.NewReader([]byte(raw)))
	if err != nil {
		t.Fatal(err)
	}
	sameSeries(t, out, in)

	if _, err := DecodeJSON(bytes.NewReader([]byte(`{"series":[{"labels":{},"samples":[[1,1]]}]}`))); !errors.Is(err, ErrBadWritePayload) {
		t.Errorf("labelless series accepted: %v", err)
	}
	if _, err := DecodeJSON(bytes.NewReader([]byte(`not json`))); !errors.Is(err, ErrBadWritePayload) {
		t.Errorf("garbage accepted: %v", err)
	}
	for _, raw := range []string{
		`{"timeseries":[{"labels":{"__name__":"up"},"samples":[[1,1]]}]}`,
		`{"series":[{"labels":{"__name__":"up"},"sample":[[1,1]]}]}`,
	} {
		if out, err := DecodeJSON(bytes.NewReader([]byte(raw))); !errors.Is(err, ErrBadWritePayload) {
			t.Errorf("%s: unknown key accepted as %d series: %v", raw, len(out), err)
		}
	}
}

func TestDecodeWriteRequestDispatch(t *testing.T) {
	in := []TimeSeries{mkSeries("m", nil, tsdb.Sample{T: 5, V: 6})}
	out, err := DecodeWriteRequest(bytes.NewReader(EncodeBinary(in)), ContentTypeBinary)
	if err != nil {
		t.Fatal(err)
	}
	sameSeries(t, out, in)
	raw := []byte(`{"series":[{"labels":{"__name__":"m"},"samples":[[5,6]]}]}`)
	out, err = DecodeWriteRequest(bytes.NewReader(raw), ContentTypeJSON)
	if err != nil {
		t.Fatal(err)
	}
	sameSeries(t, out, in)
	if _, err := DecodeWriteRequest(bytes.NewReader(raw), "text/plain"); !errors.Is(err, ErrBadWritePayload) {
		t.Fatalf("unknown content type accepted: %v", err)
	}
}

// frameBinary wraps body in the DWR1 magic and trailing CRC, so the fuzzer
// reaches the parser instead of stopping at the checksum.
func frameBinary(body []byte) []byte {
	raw := append([]byte(binaryMagic), body...)
	return binary.BigEndian.AppendUint32(raw, crc32.ChecksumIEEE(body))
}

// FuzzDecodeBinary: no input panics the decoder, every rejection wraps
// ErrBadWritePayload, and whatever it accepts survives an EncodeBinary →
// DecodeBinary round trip.
func FuzzDecodeBinary(f *testing.F) {
	for _, batch := range [][]TimeSeries{
		pushBatch(3, 1000),
		{mkSeries("weird", nil, tsdb.Sample{T: -1, V: math.NaN()}, tsdb.Sample{T: 1 << 44, V: math.Inf(-1)})},
		{mkSeries("empty", nil)},
	} {
		raw := EncodeBinary(batch)
		f.Add(raw[len(binaryMagic) : len(raw)-4])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, raw := range [][]byte{body, frameBinary(body)} {
			got, err := DecodeBinary(raw)
			if err != nil {
				if !errors.Is(err, ErrBadWritePayload) {
					t.Fatalf("rejection %v does not wrap ErrBadWritePayload", err)
				}
				continue
			}
			again, err := DecodeBinary(EncodeBinary(got))
			if err != nil {
				t.Fatalf("re-decoding an accepted request: %v", err)
			}
			sameSeries(t, again, got)
		}
	})
}

// FuzzPushDecoderReuse: one decoder decodes the inputs in turn (a, b,
// then a again), as a pooled decoder serves pushes. Each result, read the
// way a push is applied (labels built and checked from each key by
// keyLabels), must equal a DecodeBinary of the same bytes on a decoder
// that served nothing: the same series, labels and samples, and refused
// with ErrBadWritePayload exactly when that one is. So nothing of one push
// leaks into the next.
func FuzzPushDecoderReuse(f *testing.F) {
	var bodies [][]byte
	for _, batch := range [][]TimeSeries{
		pushBatch(3, 1000),
		{mkSeries("weird", nil, tsdb.Sample{T: -1, V: math.NaN()}, tsdb.Sample{T: 1 << 44, V: math.Inf(-1)})},
		{mkSeries("empty", nil), mkSeries("m", map[string]string{"a": "b"}, tsdb.Sample{T: 5, V: 1})},
		{{Labels: tsdb.Labels{{Name: "b", Value: "1"}, {Name: "__name__", Value: "m"}}, Samples: []tsdb.Sample{{T: 1, V: 1}}}},
	} {
		raw := EncodeBinary(batch)
		bodies = append(bodies, raw[len(binaryMagic):len(raw)-4])
	}
	for i, a := range bodies {
		f.Add(a, bodies[(i+1)%len(bodies)])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		d := getDecoder()
		defer d.release()
		for _, body := range [][]byte{a, b, a} {
			raw := frameBinary(body)
			want, wantErr := freshDecodeBinary(raw)
			err := d.decode(raw)
			var got []TimeSeries
			for i := 0; err == nil && i < len(d.series); i++ {
				var ls tsdb.Labels
				ls, err = keyLabels(uint64(i), d.series[i].key, maxLabelLength)
				got = append(got, TimeSeries{Labels: ls, Samples: d.series[i].samples})
			}
			for _, e := range []error{err, wantErr} {
				if e != nil && !errors.Is(e, ErrBadWritePayload) {
					t.Fatalf("rejection %v does not wrap ErrBadWritePayload", e)
				}
			}
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("reused decoder: %v, fresh DecodeBinary: %v", err, wantErr)
			}
			if err == nil {
				sameSeries(t, got, want)
			}
		}
	})
}

// freshDecodeBinary is DecodeBinary on a decoder that served no push: it
// empties the free list first.
func freshDecodeBinary(raw []byte) ([]TimeSeries, error) {
	for {
		select {
		case <-decoders:
		default:
			return DecodeBinary(raw)
		}
	}
}

// BenchmarkDecodeBinary2000x1 and BenchmarkDecodeBinary10x100000 decode a
// label-heavy push (write_read's 2000 series × 1 sample) and a
// sample-heavy one (10 series × 100 000 samples, a 10 MB body), so a cut
// in one shape's copies cannot hide a cost in the other's. They are
// separate benchmarks so that a -benchtime count chosen for one shape is
// never applied to the other.
func BenchmarkDecodeBinary2000x1(b *testing.B) { benchDecodeBinary(b, 2000, 1) }

func BenchmarkDecodeBinary10x100000(b *testing.B) { benchDecodeBinary(b, 10, 100_000) }

func benchDecodeBinary(b *testing.B, series, samples int) {
	batch := make([]TimeSeries, series)
	for i := range batch {
		batch[i].Labels = tsdb.Labels{
			{Name: tsdb.MetricNameLabel, Value: "bench_dl_bytes_total"},
			{Name: "instance", Value: "gnb-" + strconv.Itoa(i%40)},
			{Name: "ue", Value: "ue-" + strconv.Itoa(i)},
		}
		for j := 0; j < samples; j++ {
			batch[i].Samples = append(batch[i].Samples, tsdb.Sample{T: int64(j) * 1000, V: float64(j)})
		}
	}
	raw := EncodeBinary(batch)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBinary(raw); err != nil {
			b.Fatal(err)
		}
	}
}
