package obs

import (
	"context"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter", "")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
	r.GaugeFunc("g", "a gauge", "", func() float64 { return 7 })
	for _, fam := range r.Gather() {
		if fam.Name == "g" && fam.Samples[0].Value != 7 {
			t.Errorf("gauge = %v, want 7", fam.Samples[0].Value)
		}
	}
	// Idempotent re-registration returns the same underlying child.
	if got := r.Counter("c_total", "a counter", "").Value(); got != 3.5 {
		t.Errorf("re-registered counter = %v, want 3.5", got)
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative counter Add did not panic")
		}
	}()
	NewRegistry().Counter("c_total", "", "").Add(-1)
}

func TestReshapePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with a different kind did not panic")
		}
	}()
	r.GaugeVec("m", "", "")
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	n := 41.0
	r.GaugeFunc("fn_gauge", "callback gauge", "", func() float64 { n++; return n })
	fams := r.Gather()
	if len(fams) != 1 || fams[0].Samples[0].Value != 42 {
		t.Fatalf("gather = %+v", fams)
	}
	if v := r.Gather()[0].Samples[0].Value; v != 43 {
		t.Errorf("second gather = %v, want 43 (fn re-evaluated)", v)
	}
}

// TestHistogramBucketBoundaries pins the le-inclusive cumulative bucket
// semantics: a value equal to a bound lands in that bound's bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", "seconds", []float64{0.1, 0.5, 1})
	for _, v := range []float64{0.05, 0.1, 0.100001, 0.5, 2, -1} {
		h.Observe(v)
	}
	fam := r.Gather()[0]
	want := map[string]float64{"0.1": 3, "0.5": 5, "1": 5, "+Inf": 6} // -1 <= 0.1, boundary values inclusive
	for _, s := range fam.Samples {
		if s.Suffix != "_bucket" {
			continue
		}
		le := s.Labels[len(s.Labels)-1].Value
		if s.Value != want[le] {
			t.Errorf("bucket le=%s = %v, want %v", le, s.Value, want[le])
		}
	}
	var sum, count float64
	for _, s := range fam.Samples {
		switch s.Suffix {
		case "_sum":
			sum = s.Value
		case "_count":
			count = s.Value
		}
	}
	if count != 6 {
		t.Errorf("count = %v, want 6", count)
	}
	if wantSum := 0.05 + 0.1 + 0.100001 + 0.5 + 2 - 1; math.Abs(sum-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", sum, wantSum)
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines with
// -race: concurrent registration, updates across all kinds, and gathers.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 12
	const iters = 2000
	var inflight atomic.Int64
	r.GaugeFunc("hammer_inflight", "", "", func() float64 { return float64(inflight.Load()) })
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := r.CounterVec("hammer_total", "", "", "worker")
			h := r.HistogramVec("hammer_seconds", "", "seconds", DefBuckets(), "worker")
			lbl := string(rune('a' + id%4))
			for i := 0; i < iters; i++ {
				c.With(lbl).Inc()
				h.With(lbl).Observe(float64(i%100) / 100)
				inflight.Add(1)
				inflight.Add(-1)
				if i%500 == 0 {
					r.Gather()
				}
			}
		}(g)
	}
	wg.Wait()
	var total float64
	for _, fam := range r.Gather() {
		if fam.Name != "hammer_total" {
			continue
		}
		for _, s := range fam.Samples {
			total += s.Value
		}
	}
	if want := float64(goroutines * iters); total != want {
		t.Errorf("counter total = %v, want %v", total, want)
	}
	var count float64
	for _, fam := range r.Gather() {
		if fam.Name != "hammer_seconds" {
			continue
		}
		for _, s := range fam.Samples {
			if s.Suffix == "_count" {
				count += s.Value
			}
		}
	}
	if want := float64(goroutines * iters); count != want {
		t.Errorf("histogram count = %v, want %v", count, want)
	}
}

// TestFormatTextGolden pins the exact exposition output for a small
// registry: HELP/TYPE comments, label escaping, histogram expansion.
func TestFormatTextGolden(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("dio_http_requests_total", "HTTP requests handled.", "", "route", "code")
	c.With("/api/v1/ask", "200").Add(3)
	c.With(`q"uo\te`+"\n", "500").Inc()
	r.GaugeFunc("dio_feedback_open", "Open issues.", "", func() float64 { return 2 })
	h := r.Histogram("dio_ask_duration_seconds", "Ask latency.", "seconds", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)

	var b strings.Builder
	if err := r.FormatText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP dio_ask_duration_seconds Ask latency.
# TYPE dio_ask_duration_seconds histogram
dio_ask_duration_seconds_bucket{le="0.5"} 1
dio_ask_duration_seconds_bucket{le="1"} 2
dio_ask_duration_seconds_bucket{le="+Inf"} 2
dio_ask_duration_seconds_sum 1
dio_ask_duration_seconds_count 2
# HELP dio_feedback_open Open issues.
# TYPE dio_feedback_open gauge
dio_feedback_open 2
# HELP dio_http_requests_total HTTP requests handled.
# TYPE dio_http_requests_total counter
dio_http_requests_total{route="/api/v1/ask",code="200"} 3
dio_http_requests_total{route="q\"uo\\te\n",code="500"} 1
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestTracerSpans(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(0, 0)
	tr := NewTracer(r, func() time.Time { return now })
	ctx := WithTracer(context.Background(), tr)

	_, sp := StartSpan(ctx, "retrieve")
	now = now.Add(30 * time.Millisecond)
	sp.End()

	// A context without a tracer yields a nil, no-op span.
	_, nop := StartSpan(context.Background(), "retrieve")
	nop.End()

	for _, fam := range r.Gather() {
		if fam.Name != "dio_stage_duration_seconds" {
			continue
		}
		for _, s := range fam.Samples {
			if s.Suffix == "_sum" && s.Value != 0.03 {
				t.Errorf("stage sum = %v, want 0.03", s.Value)
			}
			if s.Suffix == "_count" && s.Value != 1 {
				t.Errorf("stage count = %v, want 1", s.Value)
			}
		}
		return
	}
	t.Fatal("dio_stage_duration_seconds not gathered")
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(1, 10, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
}
