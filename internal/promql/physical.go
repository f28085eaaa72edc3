package promql

// physical.go — the operators a query compiles to (plan.go compiles them,
// exec.go drives them). Operators are pull-based: each operator's exec
// produces the value (Vector/Scalar/Matrix) for one evaluation timestamp,
// pulling its inputs from child operators. Operators are immutable and shared
// across queries via the Engine plan cache; all mutable per-query state
// (sample budget, scan cursors and readers, selected series) lives in the
// part passed to exec, so one compiled plan can serve concurrent
// executions.
//
// Every operator reproduces the test oracle's behaviour exactly — same
// evaluation order, same kernels (kernels.go), same error messages —
// which is what the differential suite pins.

import (
	"fmt"
	"math"
	"regexp"
	"slices"

	"dio/internal/tsdb"
)

// physOp is one compiled operator. statsIdx is the operator's dense slot
// in the execution's stats slab and the plan's label table (promoted from
// the embedded opMeta, set once by compiledPlan.label).
type physOp interface {
	exec(p *part, ts int64) (Value, error)
	statsIdx() int
	setSlot(sx int)
}

// windowOp is implemented by operators producing range vectors with
// their window bounds (matrix scans and subqueries), the input shape
// range functions need.
type windowOp interface {
	physOp
	window(p *part, ts int64) (Matrix, int64, int64, error)
}

// vecExecer is implemented by operators that statically produce instant
// vectors. part.vector and the range executor's step loop prefer execVec
// over exec: the concrete Vector return never crosses a Value interface
// boundary, which on the per-step hot path saved one heap allocation per
// operator per step (the interface box).
type vecExecer interface {
	physOp
	execVec(p *part, ts int64) (Vector, error)
}

// opMeta is embedded by every operator: its stats-slot index, assigned at
// compile time so per-execution collection is a dense array update with
// no lookups or allocation.
type opMeta struct{ sx int }

func (m *opMeta) statsIdx() int  { return m.sx }
func (m *opMeta) setSlot(sx int) { m.sx = sx }

// opKids appends op's children to buf in plan order: the order the query
// text names them, an aggregation's input before its parameter. It is
// the only child enumeration; pass a stack array's slice to keep a walk
// allocation-free.
func opKids(op physOp, buf []physOp) []physOp {
	switch o := op.(type) {
	case *pNeg:
		return append(buf, o.child)
	case *pSubquery:
		return append(buf, o.child)
	case *pRangeFunc:
		switch {
		case o.scalarArg == nil:
			return append(buf, o.arg)
		case o.scalarFirst:
			return append(buf, o.scalarArg, o.arg)
		}
		return append(buf, o.arg, o.scalarArg)
	case *pVectorMath:
		return append(append(buf, o.vec), o.scalars...)
	case *pVectorFn:
		return append(buf, o.arg)
	case *pScalarFn:
		return append(buf, o.arg)
	case *pAbsent:
		return append(buf, o.arg)
	case *pHistogram:
		return append(buf, o.phi, o.vec)
	case *pLabelReplace:
		return append(buf, o.vec)
	case *pAgg:
		if o.param != nil {
			return append(buf, o.child, o.param)
		}
		return append(buf, o.child)
	case *pBinary:
		return append(buf, o.lhs, o.rhs)
	}
	return buf
}

// --- operators -----------------------------------------------------------

type pConst struct {
	opMeta
	v float64
}

func (o *pConst) exec(p *part, ts int64) (Value, error) { return Scalar{T: ts, V: o.v}, nil }

type pString struct {
	opMeta
	s string
}

func (o *pString) exec(p *part, ts int64) (Value, error) { return String{T: ts, V: o.s}, nil }

type pNeg struct {
	opMeta
	child physOp
}

func (o *pNeg) exec(p *part, ts int64) (Value, error) {
	v, err := p.eval(o.child, ts)
	if err != nil {
		return nil, err
	}
	switch x := v.(type) {
	case Scalar:
		return Scalar{T: x.T, V: -x.V}, nil
	case Vector:
		out := p.al.vec(len(x))
		for _, s := range x {
			out = append(out, VSample{Labels: dropName(s.Labels), T: s.T, V: -s.V})
		}
		return out, nil
	}
	return nil, fmt.Errorf("promql: unary minus on %s", v.ValueType())
}

// pScan is an instant-vector selector read over prefetched series.
type pScan struct {
	opMeta
	scanIdx int
	cur     int
	offMs   int64
}

func (o *pScan) exec(p *part, ts int64) (Value, error) {
	v, err := o.execVec(p, ts)
	if err != nil {
		return nil, err
	}
	return v, nil
}

func (o *pScan) execVec(p *part, ts int64) (Vector, error) {
	out := p.instant(o.scanIdx, o.cur, ts-o.offMs, ts)
	p.noteSamples(o.sx, len(out))
	if err := p.account(len(out)); err != nil {
		return nil, err
	}
	return out, nil
}

// pMatrix is a range-vector window read over prefetched series. Range
// functions read its windows straight off the cursor (overCursor); window
// builds the matrix only for a query whose value is the window itself.
type pMatrix struct {
	opMeta
	scanIdx int
	cur     int
	offMs   int64
	rngMs   int64
}

func (o *pMatrix) window(p *part, ts int64) (Matrix, int64, int64, error) {
	end := ts - o.offMs
	start := end - o.rngMs
	rd, n, total := p.seek(o.scanIdx, o.cur, start, end)
	p.noteSamples(o.sx, total)
	if err := p.account(total); err != nil {
		return nil, 0, 0, err
	}
	out := p.al.mat(n)
	for i, sv := range p.st.series[o.scanIdx] {
		if w := rd[i].Last(); len(w) > 0 {
			out = append(out, MSeries{Labels: sv.Labels, Samples: w})
		}
	}
	return out, start, end, nil
}

func (o *pMatrix) exec(p *part, ts int64) (Value, error) {
	m, _, _, err := o.window(p, ts)
	return m, err
}

// pSubquery evaluates its child at every inner step of the window
// (start, end], accumulating a matrix in first-seen series order (the
// same order the test oracle produces). Inner steps are the multiples of
// the step, counted from the epoch as in Prometheus, so consecutive
// windows share them: a part evaluates each inner step once, in time
// order, and keeps its vector while the window holds it (slot indexes
// part.subs). A window that reuses a step charges the samples the step
// charged again, so the sample budget is what evaluating it anew spends.
type pSubquery struct {
	opMeta
	child  physOp
	slot   int
	offMs  int64
	rngMs  int64
	stepMs int64
}

// innerStep is one evaluated inner step of a subquery: its vector, copied
// out of the step arena, and the samples its evaluation charged.
type innerStep struct {
	t       int64
	vec     Vector
	samples int
}

func (o *pSubquery) window(p *part, ts int64) (Matrix, int64, int64, error) {
	end := ts - o.offMs
	start := end - o.rngMs
	if o.stepMs <= 0 {
		return nil, 0, 0, fmt.Errorf("promql: subquery step must be positive")
	}
	steps := slices.DeleteFunc(p.subs[o.slot], func(s innerStep) bool { return s.t <= start })
	// The first inner step is the least multiple of the step above start.
	// Division truncates toward zero, so for a negative start the product
	// is already the ceiling, and only a multiple at or below start moves
	// up a step.
	t := start / o.stepMs * o.stepMs
	if t <= start {
		t += o.stepMs
	}
	for _, s := range steps {
		if err := p.account(s.samples); err != nil {
			return nil, 0, 0, err
		}
		t = s.t + o.stepMs
	}
	for ; t <= end; t += o.stepMs {
		before := p.samples
		v, err := p.eval(o.child, t)
		if err != nil {
			return nil, 0, 0, err
		}
		var vec Vector
		switch x := v.(type) {
		case Vector:
			vec = x
			if p.al != nil { // the arena recycles x once this outer step folds
				vec = slices.Clone(x)
			}
		case Scalar:
			vec = Vector{{Labels: nil, T: x.T, V: x.V}}
		default:
			return nil, 0, 0, fmt.Errorf("promql: subquery inner expression must be a vector or scalar")
		}
		steps = append(steps, innerStep{t: t, vec: vec, samples: p.samples - before})
	}
	p.subs[o.slot] = steps

	acc := make(map[string]*MSeries)
	var order []string
	ids := p.st.posTable(o.child)
	for _, st := range steps {
		for _, s := range st.vec {
			key := p.st.sampleKey(ids, s)
			ms, ok := acc[key]
			if !ok {
				ms = &MSeries{Labels: s.Labels}
				acc[key] = ms
				order = append(order, key)
			}
			ms.Samples = append(ms.Samples, tsdb.Sample{T: st.t, V: s.V})
		}
	}
	out := p.al.mat(len(order))
	for _, k := range order {
		out = append(out, *acc[k])
	}
	return out, start, end, nil
}

func (o *pSubquery) exec(p *part, ts int64) (Value, error) {
	m, _, _, err := o.window(p, ts)
	return m, err
}

// pRangeFunc applies a range-vector function (rate, increase,
// *_over_time, …) to its window input.
type pRangeFunc struct {
	opMeta
	name      string
	arg       windowOp
	scalarArg physOp // nil when the function takes none
	// scalarFirst records that the scalar argument precedes the range
	// argument in the query (quantile_over_time's φ). It orders the
	// rendered tree only: the range argument always evaluates first, as
	// in the test oracle.
	scalarFirst bool
}

func (o *pRangeFunc) exec(p *part, ts int64) (Value, error) {
	v, err := o.execVec(p, ts)
	if err != nil {
		return nil, err
	}
	return v, nil
}

func (o *pRangeFunc) execVec(p *part, ts int64) (Vector, error) {
	if m, ok := o.arg.(*pMatrix); ok {
		return o.overCursor(p, m, ts)
	}
	matrix, start, end, err := p.window(o.arg, ts)
	if err != nil {
		return nil, err
	}
	var scalarParam float64
	if o.scalarArg != nil {
		scalarParam, err = p.scalar(o.scalarArg, ts)
		if err != nil {
			return nil, err
		}
	}
	return applyRangeFunc(p.al, o.name, matrix, start, end, ts, scalarParam)
}

// overCursor is execVec over a matrix scan: each window is read straight
// off its cursor, with no window matrix, and outputs carry
// their scan position, so labels and order come from the identity table.
// The scan's stats and sample budget are charged as pMatrix.window
// charges them, before the kernel runs. Rate and increase run
// counterDelta's scan only on a window that holds a drop: on any other,
// last − first is the delta (tsdb.Reader.LastDrop).
func (o *pRangeFunc) overCursor(p *part, m *pMatrix, ts int64) (Vector, error) {
	if err := p.cancelled(); err != nil {
		return nil, err
	}
	end := ts - m.offMs
	start := end - m.rngMs
	begin := p.enter(m.sx)
	rd, n, total := p.seek(m.scanIdx, m.cur, start, end)
	p.leave(m.sx, begin, n)
	p.noteSamples(m.sx, total)
	err := p.account(total)
	if err != nil {
		return nil, err
	}
	var scalarParam float64
	if o.scalarArg != nil {
		if scalarParam, err = p.scalar(o.scalarArg, ts); err != nil {
			return nil, err
		}
	}
	ids := p.st.ids[o.sx] // nil when the name drop makes keys collide
	counter := o.name == "rate" || o.name == "increase"
	out := p.al.vec(n)
	for i, sv := range p.st.series[m.scanIdx] {
		w := rd[i].Last()
		if len(w) == 0 {
			continue
		}
		var v float64
		var ok bool
		if counter && rd[i].LastDrop() <= w[0].T {
			v, ok = extrapolatedRate(w, w[len(w)-1].V-w[0].V, start, end, true, o.name == "rate")
		} else if v, ok, err = rangeSeriesValue(p.al, o.name, w, start, end, ts, scalarParam); err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if ids == nil {
			out = append(out, VSample{Labels: dropName(sv.Labels), T: ts, V: v})
		} else {
			out = append(out, VSample{Labels: ids.labels[i], T: ts, V: v, pos: int32(i + 1)})
		}
	}
	if ids == nil {
		out.Sort()
	} else {
		ids.sortByRank(out)
	}
	return out, nil
}

// pVectorMath applies a simple vector→vector math function.
type pVectorMath struct {
	opMeta
	name    string
	vec     physOp
	scalars []physOp
}

func (o *pVectorMath) exec(p *part, ts int64) (Value, error) {
	v, err := o.execVec(p, ts)
	if err != nil {
		return nil, err
	}
	return v, nil
}

func (o *pVectorMath) execVec(p *part, ts int64) (Vector, error) {
	vec, err := p.vector(o.vec, ts)
	if err != nil {
		return nil, err
	}
	var sbuf [2]float64
	scalars := sbuf[:0]
	for _, sop := range o.scalars {
		s, err := p.scalar(sop, ts)
		if err != nil {
			return nil, err
		}
		scalars = append(scalars, s)
	}
	return applyVectorMath(p.al, o.name, vec, scalars), nil
}

type pTime struct{ opMeta }

func (o *pTime) exec(p *part, ts int64) (Value, error) {
	return Scalar{T: ts, V: float64(ts) / 1000}, nil
}

type pVectorFn struct {
	opMeta
	arg physOp
}

func (o *pVectorFn) exec(p *part, ts int64) (Value, error) {
	v, err := o.execVec(p, ts)
	if err != nil {
		return nil, err
	}
	return v, nil
}

func (o *pVectorFn) execVec(p *part, ts int64) (Vector, error) {
	s, err := p.scalar(o.arg, ts)
	if err != nil {
		return nil, err
	}
	return append(p.al.vec(1), VSample{Labels: nil, T: ts, V: s}), nil
}

type pScalarFn struct {
	opMeta
	arg physOp
}

func (o *pScalarFn) exec(p *part, ts int64) (Value, error) {
	v, err := p.vector(o.arg, ts)
	if err != nil {
		return nil, err
	}
	if len(v) != 1 {
		return Scalar{T: ts, V: math.NaN()}, nil
	}
	return Scalar{T: ts, V: v[0].V}, nil
}

type pAbsent struct {
	opMeta
	arg physOp
}

func (o *pAbsent) exec(p *part, ts int64) (Value, error) {
	v, err := o.execVec(p, ts)
	if err != nil {
		return nil, err
	}
	return v, nil
}

func (o *pAbsent) execVec(p *part, ts int64) (Vector, error) {
	v, err := p.vector(o.arg, ts)
	if err != nil {
		return nil, err
	}
	if len(v) > 0 {
		return Vector{}, nil
	}
	return append(p.al.vec(1), VSample{Labels: nil, T: ts, V: 1}), nil
}

type pHistogram struct {
	opMeta
	phi, vec physOp
}

func (o *pHistogram) exec(p *part, ts int64) (Value, error) {
	v, err := o.execVec(p, ts)
	if err != nil {
		return nil, err
	}
	return v, nil
}

func (o *pHistogram) execVec(p *part, ts int64) (Vector, error) {
	phi, err := p.scalar(o.phi, ts)
	if err != nil {
		return nil, err
	}
	vec, err := p.vector(o.vec, ts)
	if err != nil {
		return nil, err
	}
	return histogramQuantileVector(p.al, phi, vec, ts), nil
}

type pLabelReplace struct {
	opMeta
	vec                     physOp
	dst, repl, src, pattern string
	re                      *regexp.Regexp
	reErr                   error
}

func (o *pLabelReplace) exec(p *part, ts int64) (Value, error) {
	v, err := o.execVec(p, ts)
	if err != nil {
		return nil, err
	}
	return v, nil
}

func (o *pLabelReplace) execVec(p *part, ts int64) (Vector, error) {
	vec, err := p.vector(o.vec, ts)
	if err != nil {
		return nil, err
	}
	if o.reErr != nil {
		return nil, o.reErr
	}
	return labelReplaceVector(p.al, vec, o.re, o.dst, o.repl, o.src), nil
}

// pAgg groups and folds its input vector.
type pAgg struct {
	opMeta
	ast      *AggregateExpr
	child    physOp
	param    physOp // nil for string or absent parameters
	strParam string
}

func (o *pAgg) exec(p *part, ts int64) (Value, error) {
	v, err := o.execVec(p, ts)
	if err != nil {
		return nil, err
	}
	return v, nil
}

func (o *pAgg) execVec(p *part, ts int64) (Vector, error) {
	vec, err := p.vector(o.child, ts)
	if err != nil {
		return nil, err
	}
	var param float64
	if o.param != nil {
		param, err = p.scalar(o.param, ts)
		if err != nil {
			return nil, err
		}
	}
	return aggregateVector(p.al, o.ast, vec, param, o.strParam, ts, p.st.ids[o.sx])
}

// pBinary joins two operand batches, the left evaluated first as in the
// test oracle, so a failing left side reports its error.
type pBinary struct {
	opMeta
	ast      *BinaryExpr
	lhs, rhs physOp
}

func (o *pBinary) exec(p *part, ts int64) (Value, error) {
	lv, err := p.eval(o.lhs, ts)
	if err != nil {
		return nil, err
	}
	rv, err := p.eval(o.rhs, ts)
	if err != nil {
		return nil, err
	}
	return applyBinary(p.al, o.ast, lv, rv, ts)
}
