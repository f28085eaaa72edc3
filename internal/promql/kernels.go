package promql

// Shared evaluation kernels. The compiled physical operators in
// physical.go and the test-only tree-walking oracle (oracle_test.go) both
// delegate the actual math to the functions in this file, so the
// differential tests can only catch divergence in how samples are fetched
// and work is ordered, never in the arithmetic itself — that is what the
// hand-derived conformance corpus (testdata/conformance) is for.

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"sort"
	"strconv"

	"dio/internal/tsdb"
)

// rangeSeriesValue computes a range-vector function over one series
// window. ok=false drops the series from the output (insufficient
// points). ts is the evaluation timestamp (predict_linear anchors its
// regression there).
func rangeSeriesValue(al *alloc, name string, s []tsdb.Sample, start, end, ts int64, scalarParam float64) (v float64, ok bool, err error) {
	ok = true
	switch name {
	case "rate", "increase":
		v, ok = extrapolatedRate(s, counterDelta(s), start, end, true, name == "rate")
	case "delta":
		v, ok = extrapolatedRate(s, s[len(s)-1].V-s[0].V, start, end, false, false)
	case "irate":
		if len(s) < 2 {
			ok = false
			break
		}
		a, b := s[len(s)-2], s[len(s)-1]
		dv := b.V - a.V
		if dv < 0 { // counter reset
			dv = b.V
		}
		dt := float64(b.T-a.T) / 1000
		if dt <= 0 {
			ok = false
			break
		}
		v = dv / dt
	case "idelta":
		if len(s) < 2 {
			ok = false
			break
		}
		v = s[len(s)-1].V - s[len(s)-2].V
	case "resets":
		prev := s[0].V
		for _, x := range s[1:] {
			if x.V < prev {
				v++
			}
			prev = x.V
		}
	case "changes":
		// A NaN after a NaN is no change, as in Prometheus's funcChanges.
		prev := s[0].V
		for _, x := range s[1:] {
			if x.V != prev && !(math.IsNaN(x.V) && math.IsNaN(prev)) {
				v++
			}
			prev = x.V
		}
	case "avg_over_time":
		v = avgOverTime(s)
	case "sum_over_time":
		v = sumOverTime(s)
	case "min_over_time":
		v = minOverTime(s)
	case "max_over_time":
		v = maxOverTime(s)
	case "count_over_time":
		v = float64(len(s))
	case "last_over_time":
		v = s[len(s)-1].V
	case "stddev_over_time":
		v = math.Sqrt(stdvarOverTime(s))
	case "stdvar_over_time":
		v = stdvarOverTime(s)
	case "quantile_over_time":
		// quantile sorts in place, so the window must be copied either way;
		// the copy comes from the arena.
		vals := al.floats(len(s))
		for _, x := range s {
			vals = append(vals, x.V)
		}
		v = quantile(scalarParam, vals)
	case "deriv":
		if len(s) < 2 {
			ok = false
			break
		}
		v, _ = linearRegression(s, s[0].T)
	case "predict_linear":
		if len(s) < 2 {
			ok = false
			break
		}
		slope, intercept := linearRegression(s, ts)
		v = intercept + slope*scalarParam
	default:
		return 0, false, fmt.Errorf("promql: unhandled range function %q", name)
	}
	return v, ok, nil
}

// applyRangeFunc maps a range-vector function over every series of a
// window matrix, producing the sorted instant vector stamped at ts.
func applyRangeFunc(al *alloc, name string, matrix Matrix, start, end, ts int64, scalarParam float64) (Vector, error) {
	out := al.vec(len(matrix))
	for _, series := range matrix {
		v, ok, err := rangeSeriesValue(al, name, series.Samples, start, end, ts, scalarParam)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		out = append(out, VSample{Labels: dropName(series.Labels), T: ts, V: v})
	}
	out.Sort()
	return out, nil
}

// applyVectorMath maps a simple vector→vector math function over vec.
// scalars holds the evaluated trailing scalar arguments (round's
// nearest, clamp's bounds).
func applyVectorMath(al *alloc, name string, vec Vector, scalars []float64) Vector {
	apply := func(v float64) float64 {
		switch name {
		case "abs":
			return math.Abs(v)
		case "ceil":
			return math.Ceil(v)
		case "floor":
			return math.Floor(v)
		case "exp":
			return math.Exp(v)
		case "ln":
			return math.Log(v)
		case "log2":
			return math.Log2(v)
		case "log10":
			return math.Log10(v)
		case "sqrt":
			return math.Sqrt(v)
		case "round":
			to := 1.0
			if len(scalars) > 0 {
				to = scalars[0]
			}
			if to == 0 {
				return math.NaN()
			}
			return math.Round(v/to) * to
		case "clamp":
			return math.Max(scalars[0], math.Min(scalars[1], v))
		case "clamp_min":
			return math.Max(scalars[0], v)
		case "clamp_max":
			return math.Min(scalars[0], v)
		case "timestamp":
			return 0 // replaced below
		case "sort", "sort_desc":
			return v // ordering handled after the map
		}
		return math.NaN()
	}
	out := al.vec(len(vec))
	for _, s := range vec {
		v := apply(s.V)
		if name == "timestamp" {
			v = float64(s.T) / 1000
		}
		out = append(out, VSample{Labels: dropName(s.Labels), T: s.T, V: v})
	}
	switch name {
	case "sort":
		sort.SliceStable(out, func(i, j int) bool { return out[i].V < out[j].V })
	case "sort_desc":
		sort.SliceStable(out, func(i, j int) bool { return out[i].V > out[j].V })
	}
	return out
}

// histogramQuantileVector implements classic histogram quantiles over
// <metric>_bucket series with le labels.
func histogramQuantileVector(al *alloc, phi float64, vec Vector, ts int64) Vector {
	groups := make(map[string][]bucket)
	groupLabels := make(map[string]tsdb.Labels)
	for _, s := range vec {
		leStr := s.Labels.Get("le")
		if leStr == "" {
			continue
		}
		// Prometheus skips a bucket whose le does not parse as a float.
		le, err := strconv.ParseFloat(leStr, 64)
		if err != nil {
			continue
		}
		rest := s.Labels.Without("le", tsdb.MetricNameLabel)
		key := rest.Key()
		groups[key] = append(groups[key], bucket{le: le, count: s.V})
		groupLabels[key] = rest
	}
	keys := al.strs(len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := al.vec(len(keys))
	for _, k := range keys {
		bs := groups[k]
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		out = append(out, VSample{Labels: groupLabels[k], T: ts, V: bucketQuantile(phi, bs)})
	}
	return out
}

// compileLabelReplace compiles a label_replace pattern with the same
// anchoring and error message the test oracle expects.
func compileLabelReplace(pattern string) (*regexp.Regexp, error) {
	re, err := regexp.Compile("^(?:" + pattern + ")$")
	if err != nil {
		return nil, fmt.Errorf("promql: label_replace pattern: %w", err)
	}
	return re, nil
}

// labelReplaceVector rewrites dst from the expansion of repl against
// src's match of re, per sample.
func labelReplaceVector(al *alloc, vec Vector, re *regexp.Regexp, dst, repl, src string) Vector {
	out := al.vec(len(vec))
	for _, s := range vec {
		val := s.Labels.Get(src)
		idx := re.FindStringSubmatchIndex(val)
		ls := s.Labels
		if idx != nil {
			res := re.ExpandString(nil, repl, val, idx)
			if len(res) > 0 {
				ls = ls.With(dst, string(res))
			} else {
				ls = ls.Without(dst)
			}
		}
		out = append(out, VSample{Labels: ls, T: s.T, V: s.V})
	}
	return out
}

// aggregateVector applies the aggregation described by n to an already
// evaluated input vector. param/strParam are n.Param's evaluated scalar
// or string value. When the input samples carry rows of ids' input table
// (ids is the aggregation's table, exec.go), each sample's group is read
// from ids; otherwise grouping labels and keys are derived from the
// sample's labels. The group accumulators live in al's reusable scratch
// slab.
func aggregateVector(al *alloc, n *AggregateExpr, vec Vector, param float64, strParam string, ts int64, ids *idTable) (Vector, error) {
	sc := al.aggScratchFor(len(vec))
	if ids != nil && len(vec) > 0 && vec[0].pos > 0 {
		sc.slot = append(sc.slot[:0], make([]int32, len(ids.keys))...)
	} else {
		ids = nil
	}
	for _, s := range vec {
		var gi int
		if ids != nil {
			row := ids.group[s.pos-1]
			if sc.slot[row] == 0 {
				sc.slot[row] = int32(sc.addGroup(ids.labels[row], row+1)) + 1
				sc.seq = append(sc.seq, sc.slot[row]-1)
			}
			gi = int(sc.slot[row] - 1)
		} else {
			gl := groupLabels(n, s.Labels)
			key := gl.Key()
			var ok bool
			if gi, ok = sc.idx[key]; !ok {
				gi = sc.addGroup(gl, 0)
				sc.idx[key] = gi
				sc.order = append(sc.order, key)
			}
		}
		g := &sc.slab[gi]
		if n.Op == AggCountValues {
			g.elems = append(g.elems, s)
		} else {
			g.vals = append(g.vals, s.V)
			g.elems = append(g.elems, s)
		}
	}
	if ids == nil {
		sort.Strings(sc.order)
		for _, key := range sc.order {
			sc.seq = append(sc.seq, int32(sc.idx[key]))
		}
	} else {
		byRank := func(a, b int32) int { return int(ids.rank[sc.slab[a].pos-1]) - int(ids.rank[sc.slab[b].pos-1]) }
		if !slices.IsSortedFunc(sc.seq, byRank) {
			slices.SortFunc(sc.seq, byRank)
		}
	}

	out := al.vec(len(sc.slab))
	for _, gi := range sc.seq {
		g := &sc.slab[gi]
		switch n.Op {
		case AggTopK, AggBottomK:
			k := int(param)
			if k <= 0 {
				continue
			}
			elems := append(al.vec(len(g.elems)), g.elems...)
			if n.Op == AggTopK {
				sort.SliceStable(elems, func(i, j int) bool { return elems[i].V > elems[j].V })
			} else {
				sort.SliceStable(elems, func(i, j int) bool { return elems[i].V < elems[j].V })
			}
			if len(elems) > k {
				elems = elems[:k]
			}
			for _, e := range elems {
				out = append(out, VSample{Labels: e.Labels, T: ts, V: e.V, pos: e.pos})
			}
			continue
		case AggCountValues:
			counts := make(map[string]int)
			for _, e := range g.elems {
				counts[formatFloat(e.V)]++
			}
			vals := make([]string, 0, len(counts))
			for v := range counts {
				vals = append(vals, v)
			}
			sort.Strings(vals)
			for _, v := range vals {
				out = append(out, VSample{Labels: g.labels.With(strParam, v), T: ts, V: float64(counts[v])})
			}
			continue
		}
		var v float64
		switch n.Op {
		case AggSum:
			for _, x := range g.vals {
				v += x
			}
		case AggAvg:
			for _, x := range g.vals {
				v += x
			}
			v /= float64(len(g.vals))
		case AggMin:
			v = g.vals[0]
			for _, x := range g.vals[1:] {
				if x < v {
					v = x
				}
			}
		case AggMax:
			v = g.vals[0]
			for _, x := range g.vals[1:] {
				if x > v {
					v = x
				}
			}
		case AggCount:
			v = float64(len(g.vals))
		case AggGroup:
			v = 1
		case AggStddev, AggStdvar:
			var mean float64
			for _, x := range g.vals {
				mean += x
			}
			mean /= float64(len(g.vals))
			var sq float64
			for _, x := range g.vals {
				d := x - mean
				sq += d * d
			}
			v = sq / float64(len(g.vals))
			if n.Op == AggStddev {
				v = math.Sqrt(v)
			}
		case AggQuantile:
			v = quantile(param, append([]float64(nil), g.vals...))
		default:
			return nil, fmt.Errorf("promql: unhandled aggregation %s", n.Op)
		}
		out = append(out, VSample{Labels: g.labels, T: ts, V: v, pos: g.pos})
	}
	// Groups come out in key order; topk, bottomk and count_values emit
	// other label sets and sort them.
	switch {
	case n.Op != AggTopK && n.Op != AggBottomK && n.Op != AggCountValues:
	case ids != nil && n.Op != AggCountValues:
		ids.in.sortByRank(out)
	default:
		out.Sort()
	}
	return out, nil
}

// applyBinary combines two evaluated operands under n's operator: set
// ops, scalar/scalar arithmetic, vector/scalar broadcast, or
// vector/vector matching.
func applyBinary(al *alloc, n *BinaryExpr, lv, rv Value, ts int64) (Value, error) {
	if n.Op.isSetOp() {
		lvec, lok := lv.(Vector)
		rvec, rok := rv.(Vector)
		if !lok || !rok {
			return nil, fmt.Errorf("promql: set operator %s requires vectors", n.Op)
		}
		return evalSetOp(al, n, lvec, rvec), nil
	}
	switch l := lv.(type) {
	case Scalar:
		switch r := rv.(type) {
		case Scalar:
			v, keep := binArith(n.Op, l.V, r.V, n.ReturnBool)
			if !keep {
				// Scalar comparisons without bool are rejected at parse
				// time; keep=false cannot happen here, but be safe.
				return Scalar{T: ts, V: math.NaN()}, nil
			}
			return Scalar{T: ts, V: v}, nil
		case Vector:
			return vectorScalarOp(al, n, r, l.V, true, ts), nil
		}
	case Vector:
		switch r := rv.(type) {
		case Scalar:
			return vectorScalarOp(al, n, l, r.V, false, ts), nil
		case Vector:
			return evalVectorVector(al, n, l, r, ts)
		}
	}
	return nil, fmt.Errorf("promql: unsupported operand types for %s", n.Op)
}
