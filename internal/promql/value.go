package promql

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"dio/internal/tsdb"
)

// Value is a query result: Scalar, Vector or Matrix.
type Value interface {
	ValueType() ValueType
}

// Scalar is a single number at the evaluation timestamp.
type Scalar struct {
	T int64
	V float64
}

// ValueType implements Value.
func (Scalar) ValueType() ValueType { return ValueScalar }

func (s Scalar) String() string { return fmt.Sprintf("%g @ %d", s.V, s.T) }

// VSample is one element of an instant vector.
type VSample struct {
	Labels tsdb.Labels
	T      int64
	V      float64
	// pos is 0 or 1 + the sample's row in its producer's scan or identity
	// table (idTable, exec.go); the executor reads it only where that
	// table exists, which is inside range queries.
	pos int32
}

// Vector is an instant vector: one sample per series.
type Vector []VSample

// ValueType implements Value.
func (Vector) ValueType() ValueType { return ValueVector }

func (v Vector) String() string {
	parts := make([]string, len(v))
	for i, s := range v {
		parts[i] = fmt.Sprintf("%s => %g @ %d", s.Labels, s.V, s.T)
	}
	return strings.Join(parts, "\n")
}

// Sort orders the vector by label key for deterministic output. Keys are
// built once per element, not inside the comparator (which would rebuild
// each one O(log n) times), into a pooled scratch slice — this showed up
// top-10 in the PR 8 allocation profile.
func (v Vector) Sort() {
	if len(v) < 2 {
		return
	}
	sc := sortScratchPool.Get().(*sortScratch)
	keys := sc.keys
	if cap(keys) < len(v) {
		keys = make([]string, 0, 2*len(v))
	}
	keys = keys[:len(v)]
	for i := range v {
		keys[i] = v[i].Labels.Key()
	}
	sortWithKeys(v, keys)
	for i := range keys {
		keys[i] = "" // don't pin key strings in the pool
	}
	sc.keys = keys[:0]
	sortScratchPool.Put(sc)
}

// sortScratch is the pooled decorate-sort scratch of Vector.Sort, held
// behind a pointer so Get/Put never box the slice header.
type sortScratch struct{ keys []string }

var sortScratchPool = sync.Pool{New: func() any { return new(sortScratch) }}

// vectorByKey sorts a vector and its precomputed keys together. Pointer
// receivers: sort.Sort is handed a *vectorByKey, so the interface
// conversion reuses one allocation-free pointer instead of boxing the
// struct per call.
type vectorByKey struct {
	v    Vector
	keys []string
}

func (s *vectorByKey) Len() int           { return len(s.v) }
func (s *vectorByKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *vectorByKey) Swap(i, j int) {
	s.v[i], s.v[j] = s.v[j], s.v[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

var sorterPool = sync.Pool{New: func() any { return new(vectorByKey) }}

// sortWithKeys sorts v and its precomputed keys together with a pooled
// sorter (a fresh one would escape into the sort.Sort interface and
// allocate per call).
func sortWithKeys(v Vector, keys []string) {
	s := sorterPool.Get().(*vectorByKey)
	s.v, s.keys = v, keys
	sort.Sort(s)
	s.v, s.keys = nil, nil
	sorterPool.Put(s)
}

// MSeries is one series of a range-vector (matrix) result.
type MSeries struct {
	Labels  tsdb.Labels
	Samples []tsdb.Sample
}

// Matrix is a range vector: several samples per series.
type Matrix []MSeries

// ValueType implements Value.
func (Matrix) ValueType() ValueType { return ValueMatrix }

func (m Matrix) String() string {
	parts := make([]string, len(m))
	for i, s := range m {
		vals := make([]string, len(s.Samples))
		for j, smp := range s.Samples {
			vals[j] = fmt.Sprintf("%g@%d", smp.V, smp.T)
		}
		parts[i] = fmt.Sprintf("%s => [%s]", s.Labels, strings.Join(vals, " "))
	}
	return strings.Join(parts, "\n")
}

// String is a string result (only produced by string literals).
type String struct {
	T int64
	V string
}

// ValueType implements Value.
func (String) ValueType() ValueType { return ValueString }

func (s String) String() string { return s.V }

// NumericResult flattens a Value into comparable numbers for the execution
// accuracy check: a sorted list of (label-key, value) pairs. Scalars map to
// one pair with an empty key.
type NumericResult []LabeledValue

// LabeledValue is one (series identity, value) pair of a numeric result.
type LabeledValue struct {
	Key string
	V   float64
}

// Numeric converts a query Value into a NumericResult. Matrix values take
// the last sample of each series (dashboards consume full matrices; the EX
// comparison is over instant answers).
func Numeric(v Value) NumericResult {
	switch x := v.(type) {
	case Scalar:
		return NumericResult{{Key: "", V: x.V}}
	case Vector:
		out := make(NumericResult, 0, len(x))
		for _, s := range x {
			out = append(out, LabeledValue{Key: s.Labels.Without(tsdb.MetricNameLabel).Key(), V: s.V})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		return out
	case Matrix:
		out := make(NumericResult, 0, len(x))
		for _, s := range x {
			if len(s.Samples) == 0 {
				continue
			}
			out = append(out, LabeledValue{Key: s.Labels.Without(tsdb.MetricNameLabel).Key(), V: s.Samples[len(s.Samples)-1].V})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		return out
	}
	return nil
}

// EqualResults reports whether two numeric results match within a relative
// tolerance: the execution-accuracy equality test. Label identities must
// match exactly; values match when |a-b| <= tol*max(|a|,|b|) (or both NaN).
func EqualResults(a, b NumericResult, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			return false
		}
		va, vb := a[i].V, b[i].V
		if math.IsNaN(va) && math.IsNaN(vb) {
			continue
		}
		diff := math.Abs(va - vb)
		scale := math.Max(math.Abs(va), math.Abs(vb))
		if diff > tol*scale && diff > 1e-12 {
			return false
		}
	}
	return true
}
