package promql

import (
	"math"
	"sort"

	"dio/internal/tsdb"
)

// Function describes a built-in PromQL function.
type Function struct {
	Name         string
	ArgTypes     []ValueType
	OptionalArgs int
	ReturnType   ValueType
}

// functions is the registry of supported built-ins.
var functions = map[string]*Function{
	"rate":               {Name: "rate", ArgTypes: []ValueType{ValueMatrix}, ReturnType: ValueVector},
	"irate":              {Name: "irate", ArgTypes: []ValueType{ValueMatrix}, ReturnType: ValueVector},
	"increase":           {Name: "increase", ArgTypes: []ValueType{ValueMatrix}, ReturnType: ValueVector},
	"delta":              {Name: "delta", ArgTypes: []ValueType{ValueMatrix}, ReturnType: ValueVector},
	"idelta":             {Name: "idelta", ArgTypes: []ValueType{ValueMatrix}, ReturnType: ValueVector},
	"resets":             {Name: "resets", ArgTypes: []ValueType{ValueMatrix}, ReturnType: ValueVector},
	"changes":            {Name: "changes", ArgTypes: []ValueType{ValueMatrix}, ReturnType: ValueVector},
	"avg_over_time":      {Name: "avg_over_time", ArgTypes: []ValueType{ValueMatrix}, ReturnType: ValueVector},
	"sum_over_time":      {Name: "sum_over_time", ArgTypes: []ValueType{ValueMatrix}, ReturnType: ValueVector},
	"min_over_time":      {Name: "min_over_time", ArgTypes: []ValueType{ValueMatrix}, ReturnType: ValueVector},
	"max_over_time":      {Name: "max_over_time", ArgTypes: []ValueType{ValueMatrix}, ReturnType: ValueVector},
	"count_over_time":    {Name: "count_over_time", ArgTypes: []ValueType{ValueMatrix}, ReturnType: ValueVector},
	"last_over_time":     {Name: "last_over_time", ArgTypes: []ValueType{ValueMatrix}, ReturnType: ValueVector},
	"stddev_over_time":   {Name: "stddev_over_time", ArgTypes: []ValueType{ValueMatrix}, ReturnType: ValueVector},
	"stdvar_over_time":   {Name: "stdvar_over_time", ArgTypes: []ValueType{ValueMatrix}, ReturnType: ValueVector},
	"quantile_over_time": {Name: "quantile_over_time", ArgTypes: []ValueType{ValueScalar, ValueMatrix}, ReturnType: ValueVector},
	"deriv":              {Name: "deriv", ArgTypes: []ValueType{ValueMatrix}, ReturnType: ValueVector},
	"predict_linear":     {Name: "predict_linear", ArgTypes: []ValueType{ValueMatrix, ValueScalar}, ReturnType: ValueVector},
	"abs":                {Name: "abs", ArgTypes: []ValueType{ValueVector}, ReturnType: ValueVector},
	"ceil":               {Name: "ceil", ArgTypes: []ValueType{ValueVector}, ReturnType: ValueVector},
	"floor":              {Name: "floor", ArgTypes: []ValueType{ValueVector}, ReturnType: ValueVector},
	"round":              {Name: "round", ArgTypes: []ValueType{ValueVector, ValueScalar}, OptionalArgs: 1, ReturnType: ValueVector},
	"exp":                {Name: "exp", ArgTypes: []ValueType{ValueVector}, ReturnType: ValueVector},
	"ln":                 {Name: "ln", ArgTypes: []ValueType{ValueVector}, ReturnType: ValueVector},
	"log2":               {Name: "log2", ArgTypes: []ValueType{ValueVector}, ReturnType: ValueVector},
	"log10":              {Name: "log10", ArgTypes: []ValueType{ValueVector}, ReturnType: ValueVector},
	"sqrt":               {Name: "sqrt", ArgTypes: []ValueType{ValueVector}, ReturnType: ValueVector},
	"clamp":              {Name: "clamp", ArgTypes: []ValueType{ValueVector, ValueScalar, ValueScalar}, ReturnType: ValueVector},
	"clamp_min":          {Name: "clamp_min", ArgTypes: []ValueType{ValueVector, ValueScalar}, ReturnType: ValueVector},
	"clamp_max":          {Name: "clamp_max", ArgTypes: []ValueType{ValueVector, ValueScalar}, ReturnType: ValueVector},
	"scalar":             {Name: "scalar", ArgTypes: []ValueType{ValueVector}, ReturnType: ValueScalar},
	"vector":             {Name: "vector", ArgTypes: []ValueType{ValueScalar}, ReturnType: ValueVector},
	"time":               {Name: "time", ArgTypes: nil, ReturnType: ValueScalar},
	"timestamp":          {Name: "timestamp", ArgTypes: []ValueType{ValueVector}, ReturnType: ValueVector},
	"sort":               {Name: "sort", ArgTypes: []ValueType{ValueVector}, ReturnType: ValueVector},
	"sort_desc":          {Name: "sort_desc", ArgTypes: []ValueType{ValueVector}, ReturnType: ValueVector},
	"absent":             {Name: "absent", ArgTypes: []ValueType{ValueVector}, ReturnType: ValueVector},
	"histogram_quantile": {Name: "histogram_quantile", ArgTypes: []ValueType{ValueScalar, ValueVector}, ReturnType: ValueVector},
	"label_replace":      {Name: "label_replace", ArgTypes: []ValueType{ValueVector, ValueString, ValueString, ValueString, ValueString}, ReturnType: ValueVector},
}

// LookupFunction returns the function descriptor for name.
func LookupFunction(name string) (*Function, bool) {
	f, ok := functions[name]
	return f, ok
}

// --- range-vector function kernels -------------------------------------

// counterDelta is a counter window's increase in Prometheus 3.x's form:
// last − first, then, in sample order, the value before each drop, since
// a drop means the counter restarted from zero. On an integer-valued
// counter it equals the sum of the window's increments bit for bit: every
// partial sum of either is an integer, so exact.
func counterDelta(samples []tsdb.Sample) float64 {
	delta := samples[len(samples)-1].V - samples[0].V
	prev := samples[0].V
	for _, s := range samples[1:] {
		if s.V < prev {
			delta += prev
		}
		prev = s.V
	}
	return delta
}

// extrapolatedRate implements the Prometheus rate/increase/delta
// extrapolation of a window's delta (counterDelta's for a counter, last −
// first for a gauge) to the window boundaries, unless the first/last
// samples are far from them. A streamed counter window with no drop
// passes last − first, which is what counterDelta returns for it.
func extrapolatedRate(samples []tsdb.Sample, delta float64, rangeStart, rangeEnd int64, isCounter, isRate bool) (float64, bool) {
	if len(samples) < 2 {
		return 0, false
	}
	sampledInterval := float64(samples[len(samples)-1].T-samples[0].T) / 1000
	if sampledInterval == 0 {
		return 0, false
	}
	averageInterval := sampledInterval / float64(len(samples)-1)
	windowSeconds := float64(rangeEnd-rangeStart) / 1000

	// Extrapolate to the window edges if samples are close enough to them.
	startGap := float64(samples[0].T-rangeStart) / 1000
	endGap := float64(rangeEnd-samples[len(samples)-1].T) / 1000
	extStart, extEnd := averageInterval*1.1, averageInterval*1.1
	factorStart := startGap
	if factorStart >= extStart {
		factorStart = averageInterval / 2
	}
	factorEnd := endGap
	if factorEnd >= extEnd {
		factorEnd = averageInterval / 2
	}
	extrapolated := delta * (sampledInterval + factorStart + factorEnd) / sampledInterval
	if isCounter && extrapolated < 0 {
		extrapolated = 0
	}
	if isRate {
		return extrapolated / windowSeconds, true
	}
	return extrapolated, true
}

// overTime kernels collapse a window of samples to one value.
func avgOverTime(s []tsdb.Sample) float64 {
	var sum float64
	for _, x := range s {
		sum += x.V
	}
	return sum / float64(len(s))
}

func sumOverTime(s []tsdb.Sample) float64 {
	var sum float64
	for _, x := range s {
		sum += x.V
	}
	return sum
}

func minOverTime(s []tsdb.Sample) float64 {
	m := s[0].V
	for _, x := range s[1:] {
		if x.V < m {
			m = x.V
		}
	}
	return m
}

func maxOverTime(s []tsdb.Sample) float64 {
	m := s[0].V
	for _, x := range s[1:] {
		if x.V > m {
			m = x.V
		}
	}
	return m
}

func stdvarOverTime(s []tsdb.Sample) float64 {
	mean := avgOverTime(s)
	var sq float64
	for _, x := range s {
		d := x.V - mean
		sq += d * d
	}
	return sq / float64(len(s))
}

// linearRegression fits v = intercept + slope·t over the samples, with t
// in seconds relative to interceptTime (ms). Used by deriv and
// predict_linear.
func linearRegression(samples []tsdb.Sample, interceptTime int64) (slope, intercept float64) {
	var n, sumX, sumY, sumXY, sumX2 float64
	for _, s := range samples {
		x := float64(s.T-interceptTime) / 1000
		n++
		sumX += x
		sumY += s.V
		sumXY += x * s.V
		sumX2 += x * x
	}
	covXY := sumXY - sumX*sumY/n
	varX := sumX2 - sumX*sumX/n
	if varX == 0 {
		return 0, sumY / n
	}
	slope = covXY / varX
	intercept = sumY/n - slope*sumX/n
	return slope, intercept
}

// quantile computes the φ-quantile of vals (linear interpolation, matching
// Prometheus semantics). vals is modified (sorted) in place.
func quantile(phi float64, vals []float64) float64 {
	if len(vals) == 0 || math.IsNaN(phi) {
		return math.NaN()
	}
	if phi < 0 {
		return math.Inf(-1)
	}
	if phi > 1 {
		return math.Inf(+1)
	}
	sort.Float64s(vals)
	n := float64(len(vals))
	rank := phi * (n - 1)
	lower := int(math.Floor(rank))
	upper := int(math.Ceil(rank))
	if lower == upper {
		return vals[lower]
	}
	w := rank - float64(lower)
	return vals[lower]*(1-w) + vals[upper]*w
}
