package httpapi

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"testing"
	"time"

	"dio/internal/promql"
	"dio/internal/tsdb"
)

// The oracle: the Prometheus result envelope as the server built it before
// writeResult, a map-and-[2]any tree handed to encoding/json. writeResult
// must reproduce json.NewEncoder(w).Encode of it byte for byte.

type queryData struct {
	Status string `json:"status"`
	Data   struct {
		ResultType string `json:"resultType"`
		Result     any    `json:"result"`
	} `json:"data"`
}

func wireVector(v promql.Vector) []map[string]any {
	out := make([]map[string]any, 0, len(v))
	for _, s := range v {
		out = append(out, map[string]any{
			"metric": s.Labels.Map(),
			"value":  [2]any{float64(s.T) / 1000, strconv.FormatFloat(s.V, 'g', -1, 64)},
		})
	}
	return out
}

func wireMatrix(m promql.Matrix) []map[string]any {
	out := make([]map[string]any, 0, len(m))
	for _, s := range m {
		values := make([][2]any, 0, len(s.Samples))
		for _, smp := range s.Samples {
			values = append(values, [2]any{float64(smp.T) / 1000, strconv.FormatFloat(smp.V, 'g', -1, 64)})
		}
		out = append(out, map[string]any{"metric": s.Labels.Map(), "values": values})
	}
	return out
}

func oracleBody(t testing.TB, v promql.Value) []byte {
	t.Helper()
	var resp queryData
	resp.Status = "success"
	switch x := v.(type) {
	case promql.Scalar:
		resp.Data.ResultType = "scalar"
		resp.Data.Result = [2]any{float64(x.T) / 1000, strconv.FormatFloat(x.V, 'g', -1, 64)}
	case promql.Vector:
		resp.Data.ResultType = "vector"
		resp.Data.Result = wireVector(x)
	case promql.Matrix:
		resp.Data.ResultType = "matrix"
		resp.Data.Result = wireMatrix(x)
	default:
		resp.Data.ResultType = "string"
		resp.Data.Result = promql.FormatValue(v)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkEncoding compares writeResult's response for v with the oracle.
func checkEncoding(t testing.TB, name string, v promql.Value) {
	t.Helper()
	rec := httptest.NewRecorder()
	writeResult(rec, v)
	got, want := rec.Body.Bytes(), oracleBody(t, v)
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		from := max(0, i-40)
		t.Errorf("%s: bodies differ at byte %d\n got …%q\nwant …%q", name, i, got[from:min(len(got), i+40)], want[from:min(len(want), i+40)])
	}
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" ||
		rec.Header().Get("Content-Length") != strconv.Itoa(len(got)) {
		t.Errorf("%s: status %d, headers %v for a %d-byte body", name, rec.Code, rec.Header(), len(got))
	}
}

// The trace the server simulates starts here; its timestamps are whole
// seconds.
const traceStartMS = 1_783_324_800_000

func points(ts []int64, vs []float64) []tsdb.Sample {
	out := make([]tsdb.Sample, 0, len(ts)*len(vs))
	for _, t := range ts {
		for _, v := range vs {
			out = append(out, tsdb.Sample{T: t, V: v})
		}
	}
	return out
}

// labelsOf builds a label set in sorted order without FromMap's dropping
// of empty values, so an empty value reaches both encoders.
func labelsOf(m map[string]string) tsdb.Labels {
	ls := make(tsdb.Labels, 0, len(m))
	for n, v := range m {
		ls = append(ls, tsdb.Label{Name: n, Value: v})
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	return ls
}

var (
	lineSep, paraSep = string(rune(0x2028)), string(rune(0x2029))
	invalidUTF8      = string([]byte{'a', 0xff, 0xfe, 'b'})
	truncatedRune    = string([]byte{'x', 0xe2, 0x82}) // the first two bytes of €
	controlBytes     = string([]byte{0x00, 0x01, 0x07, 0x0b, 0x1b, 0x1f, 0x7f})
	// labelStrings are the strings encoding/json escapes, or might be
	// thought to.
	labelStrings = []struct{ name, s string }{
		{"html", "<script>a && b</script>"},
		{"quotes", `say "hi"`},
		{"backslash", `C:\dir\`},
		{"short", "tab\tnl\ncr\rbs\bff\f"},
		{"control", controlBytes},
		{"invalid", invalidUTF8},
		{"truncated", truncatedRune},
		{"separators", "a" + lineSep + "b" + paraSep + "c"},
		{"multibyte", "héllo 日本 🚀 €"},
		{"empty", ""},
	}
	specialValues = []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64 * 3,
		1, -1, 0.5, -0.25, 1e-7, 1e21, 123456.789, 1 << 53,
	}
	// integerValues straddle ±1e6, where 'g' turns to exponent form.
	integerValues = []float64{
		999_999, 1_000_000, 1_000_001, -999_999, -1_000_000, -1_000_001,
		100_000, 120_000, 7, 42, 1e15, 1e20, 1e22,
	}
	specialTimes = []int64{
		0, 1, -1, 10, -10, 999, -999, 1000, -1000, 1500, -1500,
		traceStartMS, traceStartMS + 36_000, traceStartMS + 7_200_000, traceStartMS + 1, traceStartMS + 120,
	}
	// largeTimes run from ±1e15 ms, where t/1000 needs more than 15
	// significant digits, and past 2^53 ms, where float64(t) rounds, out to
	// the ends of int64.
	largeTimes = []int64{
		1e15 - 1, 1e15, 1e15 + 1, 1e15 + 123, -1e15 + 1, -1e15, -1e15 - 1, -1e15 - 123,
		4_503_599_627_370_497, 1<<53 - 1, 1 << 53, 1<<53 + 1, -(1 << 53) - 1,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 999, math.MinInt64 + 1,
	}
)

func randString(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return labelStrings[rng.Intn(len(labelStrings))].s
	}
	b := make([]byte, rng.Intn(10))
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return string(b)
}

func randLabels(rng *rand.Rand) tsdb.Labels {
	m := map[string]string{}
	for i := rng.Intn(5); i > 0; i-- {
		m[randString(rng)] = randString(rng)
	}
	return labelsOf(m)
}

func randValue(rng *rand.Rand) float64 {
	switch rng.Intn(5) {
	case 0:
		return specialValues[rng.Intn(len(specialValues))]
	case 1:
		return float64(rng.Intn(4_000_001) - 2_000_000)
	case 2:
		return math.Float64frombits(rng.Uint64())
	case 3:
		return integerValues[rng.Intn(len(integerValues))]
	default:
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(30)-10))
	}
}

func randTime(rng *rand.Rand) int64 {
	switch rng.Intn(5) {
	case 0:
		return specialTimes[rng.Intn(len(specialTimes))]
	case 1:
		return largeTimes[rng.Intn(len(largeTimes))]
	case 2:
		return rng.Int63n(4e15) - 2e15
	case 3:
		return int64(rng.Uint64())
	default:
		return traceStartMS + rng.Int63n(7_200_000)
	}
}

// TestQueryResultEncodingMatchesEncodingJSON holds writeResult to the bytes
// encoding/json wrote for the same result: named edge cases first, then
// random matrices, vectors and scalars.
func TestQueryResultEncodingMatchesEncodingJSON(t *testing.T) {
	name := tsdb.Labels{{Name: tsdb.MetricNameLabel, Value: "smfsm_pdu_sessions_active"}, {Name: "instance", Value: "smf-0"}}
	one := func(ls tsdb.Labels, smp []tsdb.Sample) promql.Matrix {
		return promql.Matrix{{Labels: ls, Samples: smp}}
	}
	cases := map[string]promql.Value{
		"special values":             one(name, points([]int64{traceStartMS}, specialValues)),
		"integers across 1e6":        one(name, points([]int64{traceStartMS}, integerValues)),
		"timestamps near zero":       one(name, points(specialTimes, []float64{1})),
		"timestamps across 1e15 ms":  one(name, points(largeTimes, []float64{1})),
		"empty matrix":               promql.Matrix{},
		"nil matrix":                 promql.Matrix(nil),
		"series with no points":      promql.Matrix{{Labels: name}, {Labels: nil, Samples: []tsdb.Sample{}}},
		"no labels":                  one(nil, points([]int64{0}, []float64{2})),
		"empty vector":               promql.Vector{},
		"vector":                     promql.Vector{{Labels: name, T: traceStartMS + 1, V: math.NaN()}, {Labels: nil, T: -1, V: -0.5}},
		"scalar":                     promql.Scalar{T: traceStartMS, V: 1e6},
		"scalar past the fallback":   promql.Scalar{T: math.MinInt64, V: math.Inf(-1)},
		"string result":              promql.String{T: 0, V: "a <b> & " + invalidUTF8 + lineSep},
		"labels in map order":        one(labelsOf(map[string]string{"b": "1", "a": "2", "B": "3", "_": "4", "aa": "5", "a\x00": "6"}), points([]int64{0}, []float64{1})),
		"multi-series with fraction": one(name, points([]int64{traceStartMS + 250}, []float64{0.1, 2.5e-5})),
	}
	var byValue, byName promql.Vector
	for _, ls := range labelStrings {
		cases["label value: "+ls.name] = one(tsdb.Labels{{Name: "v", Value: ls.s}}, points([]int64{0}, []float64{1}))
		cases["label name: "+ls.name] = one(tsdb.Labels{{Name: ls.s, Value: "v"}}, points([]int64{0}, []float64{1}))
		byValue = append(byValue, promql.VSample{Labels: tsdb.Labels{{Name: "v", Value: ls.s}}, T: 1, V: 1})
		byName = append(byName, promql.VSample{Labels: tsdb.Labels{{Name: ls.s, Value: "v"}}, T: 1, V: 1})
	}
	cases["label value, every tricky"], cases["label name, every tricky"] = byValue, byName
	keys := make([]string, 0, len(cases))
	for k := range cases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		checkEncoding(t, k, cases[k])
	}

	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 600; i++ {
		switch i % 3 {
		case 0:
			m := make(promql.Matrix, rng.Intn(5))
			for s := range m {
				m[s].Labels = randLabels(rng)
				m[s].Samples = make([]tsdb.Sample, rng.Intn(6))
				for p := range m[s].Samples {
					m[s].Samples[p] = tsdb.Sample{T: randTime(rng), V: randValue(rng)}
				}
			}
			checkEncoding(t, "random matrix "+strconv.Itoa(i), m)
		case 1:
			v := make(promql.Vector, rng.Intn(5))
			for s := range v {
				v[s] = promql.VSample{Labels: randLabels(rng), T: randTime(rng), V: randValue(rng)}
			}
			checkEncoding(t, "random vector "+strconv.Itoa(i), v)
		default:
			checkEncoding(t, "random scalar "+strconv.Itoa(i), promql.Scalar{T: randTime(rng), V: randValue(rng)})
		}
	}
}

// FuzzQueryResultEncoding runs one label, timestamp and value through the
// matrix, vector and scalar encoders against the encoding/json oracle.
func FuzzQueryResultEncoding(f *testing.F) {
	f.Add("instance", "amf-0", int64(traceStartMS), 42.0)
	f.Add("<a&b>", lineSep+invalidUTF8+paraSep, int64(1e15), math.NaN())
	f.Add(controlBytes, `"\`, int64(-1), math.Copysign(0, -1))
	f.Add("", "", int64(math.MinInt64), 5e-324)
	// appendSeconds writes [0, 1e15) ms as integers and the rest as floats.
	for _, ts := range []int64{-1, 0, 999, 1000, 1001, 1e15 - 1, 1e15} {
		f.Add("instance", "amf-0", ts, 1.5)
	}
	f.Fuzz(func(t *testing.T, name, value string, ts int64, v float64) {
		ls := tsdb.Labels{{Name: name, Value: value}}
		checkEncoding(t, "matrix", promql.Matrix{{Labels: ls, Samples: []tsdb.Sample{{T: ts, V: v}}}})
		checkEncoding(t, "vector", promql.Vector{{Labels: ls, T: ts, V: v}})
		checkEncoding(t, "scalar", promql.Scalar{T: ts, V: v})
	})
}

// discardWriter is a ResponseWriter that keeps nothing but the size of the
// last write.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { w.n = len(p); return len(p), nil }

// dashboardMatrix is the shape of one dashboard panel's answer: series
// × steps of 36 s from the trace start, fractional values.
func dashboardMatrix(series, steps int) promql.Matrix {
	m := make(promql.Matrix, series)
	for s := range m {
		m[s].Labels = tsdb.Labels{
			{Name: tsdb.MetricNameLabel, Value: "amfcc_initial_registration_attempt"},
			{Name: "instance", Value: "amf-" + strconv.Itoa(s)},
			{Name: "nf", Value: "amf"},
		}
		m[s].Samples = make([]tsdb.Sample, steps)
		for i := range m[s].Samples {
			m[s].Samples[i] = tsdb.Sample{T: traceStartMS + int64(i)*36_000, V: float64(s*steps+i) / 7}
		}
	}
	return m
}

// TestWriteResultAllocations: with a warm pool, encoding a 14-series ×
// 200-step matrix allocates only the two header values, whatever the
// series and point counts (the map-and-reflection encoder allocated
// thousands of times).
func TestWriteResultAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	var v promql.Value = dashboardMatrix(14, 200)
	w := &discardWriter{h: http.Header{}}
	writeResult(w, v) // warm the pool
	n := testing.AllocsPerRun(50, func() { writeResult(w, v) })
	t.Logf("%.0f allocations for a %d-byte body", n, w.n)
	if n > 3 {
		t.Errorf("writeResult allocates %.0f times per call, ceiling 3", n)
	}
}

// TestWriteResultPoolCap: a buffer that grew past maxPooledBody is dropped,
// not pooled, so one large read cannot pin its body's memory.
func TestWriteResultPoolCap(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	w := &discardWriter{h: http.Header{}}
	writeResult(w, dashboardMatrix(1, 10)) // a small buffer sits in the pool
	writeResult(w, dashboardMatrix(40, 2000))
	if w.n <= maxPooledBody {
		t.Fatalf("body is %d bytes, want over %d", w.n, maxPooledBody)
	}
	bp := bodyPool.Get().(*[]byte)
	if c := cap(*bp); c > maxPooledBody {
		t.Errorf("the pool returned the %d-byte buffer of a %d-byte body", c, w.n)
	}
}

// TestParseTimeCallsDefaultOnlyWhenAbsent: the default evaluation time (a
// parse, a tree walk and a store lookup per selector) is computed only for
// a request that sends no time of its own.
func TestParseTimeCallsDefaultOnlyWhenAbsent(t *testing.T) {
	fail := func() time.Time {
		t.Fatal("default computed for a request that sent a time")
		return time.Time{}
	}
	for _, s := range []string{"1783324800", "1783324800.5", "2026-07-06T08:00:00Z", "bogus"} {
		_, _ = parseTime(s, fail) // only the default's calls matter here
	}
	calls := 0
	want := time.UnixMilli(traceStartMS)
	got, err := parseTime("", func() time.Time { calls++; return want })
	if err != nil || !got.Equal(want) || calls != 1 {
		t.Errorf("empty time: got %v, %v after %d default calls, want %v after 1", got, err, calls, want)
	}
}

// TestParseStepWholeMilliseconds: float seconds round to whole
// milliseconds, so range steps land on the store's millisecond timestamps.
func TestParseStepWholeMilliseconds(t *testing.T) {
	for s, want := range map[string]time.Duration{
		"0.001": time.Millisecond, "0.0005": time.Millisecond, "0.0029": 3 * time.Millisecond,
		"0.0015": 2 * time.Millisecond, "36": 36 * time.Second, "90s": 90 * time.Second,
	} {
		if d, err := parseStep(s); d != want || err != nil {
			t.Errorf("parseStep(%q) = %v, %v; want %v", s, d, err, want)
		}
	}
}
