// Package obs is DIO's self-observability subsystem: a stdlib-only,
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms), a lightweight per-stage span tracer for the ask pipeline,
// Prometheus text-format exposition, and a self-scrape loop that feeds the
// registry's samples back into the operator TSDB under the dio_* namespace
// so the copilot can answer natural-language questions about its own
// health (the dogfooding loop: operate the analytics service like the
// systems it observes).
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family.
type Kind int

// Metric kinds, matching the Prometheus TYPE vocabulary.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind as it appears on a # TYPE line.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families. It is safe for concurrent use: metric
// registration, updates and gathering may all race freely.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with its children (one per label-value
// combination).
type family struct {
	name       string
	help       string
	unit       string
	kind       Kind
	labelNames []string
	buckets    []float64 // histogram upper bounds, ascending, without +Inf

	mu       sync.Mutex
	children map[string]*child
}

// child is one concrete series of a family.
type child struct {
	labelValues []string
	// bits holds a counter's float64 value.
	bits atomic.Uint64
	// fn, when set, computes a gauge's value at gather time.
	fn func() float64
	// h holds histogram state.
	h *histo
}

func (c *child) add(v float64) {
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (c *child) get() float64 { return math.Float64frombits(c.bits.Load()) }

// histo is fixed-bucket histogram state.
type histo struct {
	mu      sync.Mutex
	buckets []float64 // upper bounds, ascending
	counts  []uint64  // len(buckets)+1; the last slot is the +Inf bucket
	sum     float64
	count   uint64
}

func (h *histo) observe(v float64) {
	// le is inclusive: v belongs to the first bucket whose bound >= v.
	i := sort.SearchFloat64s(h.buckets, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// register returns the family, creating it on first use. Re-registering
// with a different shape panics: that is a programming error, not a
// runtime condition.
func (r *Registry) register(name, help, unit string, kind Kind, buckets []float64, labelNames []string) *family {
	if name == "" {
		panic("obs: metric name is required")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labelNames, labelNames) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, unit: unit, kind: kind,
		labelNames: append([]string(nil), labelNames...),
		buckets:    append([]float64(nil), buckets...),
		children:   make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// childFor returns the child for the label values, creating it on demand.
func (f *family) childFor(labelValues []string) *child {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q expects %d label values, got %d", f.name, len(f.labelNames), len(labelValues)))
	}
	// The key is built on the stack: a lookup of a child that exists, as
	// every request's is, allocates nothing.
	var buf [128]byte
	key := buf[:0]
	for i, v := range labelValues {
		if i > 0 {
			key = append(key, 0xff)
		}
		key = append(key, v...)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[string(key)]
	if !ok {
		c = &child{labelValues: append([]string(nil), labelValues...)}
		if f.kind == KindHistogram {
			c.h = &histo{buckets: f.buckets, counts: make([]uint64, len(f.buckets)+1)}
		}
		f.children[string(key)] = c
	}
	return c
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- counters -------------------------------------------------------------

// Counter is a monotonically increasing value.
type Counter struct{ c *child }

// Inc adds 1.
func (c *Counter) Inc() { c.c.add(1) }

// Add increases the counter. Negative deltas panic: counters only go up.
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("obs: counter decreased")
	}
	c.c.add(v)
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on demand).
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{c: v.f.childFor(labelValues)}
}

// Counter registers (or returns) an unlabelled counter.
func (r *Registry) Counter(name, help, unit string) *Counter {
	return r.CounterVec(name, help, unit).With()
}

// CounterVec registers (or returns) a labelled counter family.
func (r *Registry) CounterVec(name, help, unit string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, unit, KindCounter, nil, labelNames)}
}

// --- gauges ---------------------------------------------------------------

// GaugeVec is a gauge family partitioned by labels. Every gauge is a
// func gauge: its value is owned elsewhere and read at gather time.
type GaugeVec struct{ f *family }

// Func binds the child for the given label values to a callback evaluated
// at gather time (for values owned elsewhere, e.g. open-issue counts).
func (v *GaugeVec) Func(fn func() float64, labelValues ...string) {
	v.f.childFor(labelValues).fn = fn
}

// GaugeVec registers (or returns) a labelled gauge family.
func (r *Registry) GaugeVec(name, help, unit string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, unit, KindGauge, nil, labelNames)}
}

// GaugeFunc registers an unlabelled gauge computed by fn at gather time.
func (r *Registry) GaugeFunc(name, help, unit string, fn func() float64) {
	r.GaugeVec(name, help, unit).Func(fn)
}

// --- histograms -----------------------------------------------------------

// Histogram accumulates observations into fixed cumulative buckets.
type Histogram struct{ c *child }

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.c.h.observe(v) }

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{c: v.f.childFor(labelValues)}
}

// Histogram registers (or returns) an unlabelled histogram with the given
// bucket upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help, unit string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, unit, buckets).With()
}

// HistogramVec registers (or returns) a labelled histogram family.
func (r *Registry) HistogramVec(name, help, unit string, buckets []float64, labelNames ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets()
	}
	bs := append([]float64(nil), buckets...)
	sort.Float64s(bs)
	// Strip a trailing +Inf: the implementation adds the overflow bucket.
	if n := len(bs); n > 0 && math.IsInf(bs[n-1], 1) {
		bs = bs[:n-1]
	}
	return &HistogramVec{f: r.register(name, help, unit, KindHistogram, bs, labelNames)}
}

// DefBuckets returns the default latency buckets (Prometheus defaults,
// seconds).
func DefBuckets() []float64 {
	return []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}
}

// ExponentialBuckets returns count buckets starting at start, each factor
// times the previous.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("obs: ExponentialBuckets needs start > 0, factor > 1, count >= 1")
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// --- gathering ------------------------------------------------------------

// Label is one exposition label pair.
type Label struct {
	Name  string
	Value string
}

// Sample is one exposed series value of a family. Suffix distinguishes the
// histogram sub-series ("_bucket", "_sum", "_count"; "" otherwise); bucket
// samples carry their le bound as the last label.
type Sample struct {
	Suffix string
	Labels []Label
	Value  float64
}

// FamilySnapshot is one gathered metric family.
type FamilySnapshot struct {
	Name    string
	Help    string
	Unit    string
	Kind    Kind
	Samples []Sample
}

// Gather snapshots every family, sorted by name (children by label
// values), suitable for exposition or self-scraping.
func (r *Registry) Gather() []FamilySnapshot {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		out = append(out, f.snapshot())
	}
	return out
}

func (f *family) snapshot() FamilySnapshot {
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*child, 0, len(keys))
	for _, k := range keys {
		children = append(children, f.children[k])
	}
	f.mu.Unlock()

	snap := FamilySnapshot{Name: f.name, Help: f.help, Unit: f.unit, Kind: f.kind}
	for _, c := range children {
		base := make([]Label, len(f.labelNames))
		for i, n := range f.labelNames {
			base[i] = Label{Name: n, Value: c.labelValues[i]}
		}
		switch f.kind {
		case KindHistogram:
			c.h.mu.Lock()
			counts := append([]uint64(nil), c.h.counts...)
			sum, count := c.h.sum, c.h.count
			c.h.mu.Unlock()
			cum := uint64(0)
			for i, bound := range f.buckets {
				cum += counts[i]
				snap.Samples = append(snap.Samples, Sample{
					Suffix: "_bucket",
					Labels: append(append([]Label(nil), base...), Label{Name: "le", Value: formatBound(bound)}),
					Value:  float64(cum),
				})
			}
			snap.Samples = append(snap.Samples,
				Sample{Suffix: "_bucket", Labels: append(append([]Label(nil), base...), Label{Name: "le", Value: "+Inf"}), Value: float64(count)},
				Sample{Suffix: "_sum", Labels: base, Value: sum},
				Sample{Suffix: "_count", Labels: base, Value: float64(count)},
			)
		default:
			v := c.get()
			if c.fn != nil {
				v = c.fn()
			}
			snap.Samples = append(snap.Samples, Sample{Labels: base, Value: v})
		}
	}
	return snap
}
