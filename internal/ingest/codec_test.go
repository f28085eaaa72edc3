package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
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
		if !got[i].Labels.Equal(want[i].Labels) {
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

// BenchmarkDecodeBinary decodes a label-heavy push (write_read's 2000
// series × 1 sample) and a sample-heavy one (10 series × 100 000 samples,
// a 10 MB body), so a cut in one shape's copies cannot hide a cost in the
// other's.
func BenchmarkDecodeBinary(b *testing.B) {
	for _, shape := range []struct {
		name            string
		series, samples int
	}{{"2000x1", 2000, 1}, {"10x100000", 10, 100_000}} {
		batch := make([]TimeSeries, shape.series)
		for i := range batch {
			batch[i].Labels = tsdb.Labels{
				{Name: tsdb.MetricNameLabel, Value: "bench_dl_bytes_total"},
				{Name: "instance", Value: "gnb-" + strconv.Itoa(i%40)},
				{Name: "ue", Value: "ue-" + strconv.Itoa(i)},
			}
			for j := 0; j < shape.samples; j++ {
				batch[i].Samples = append(batch[i].Samples, tsdb.Sample{T: int64(j) * 1000, V: float64(j)})
			}
		}
		raw := EncodeBinary(batch)
		b.Run(shape.name, func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeBinary(raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
