package promql

// physical.go — the second plan-based execution layer (see logical.go,
// exec.go). compilePlan lowers an optimized logical plan to a tree of
// pull-based physical operators: each operator's exec produces the
// step-batch (Vector/Scalar/Matrix) for one evaluation timestamp, pulling
// its inputs from child operators. Operators are immutable and shared
// across queries via the Engine plan cache; all mutable per-query state
// (sample budget, scan cursors, prefetched series) lives in the part
// passed to exec, so one compiled plan can serve concurrent executions
// and concurrent partitions of the same execution.
//
// Every operator reproduces the test oracle's behaviour exactly — same
// evaluation order, same kernels (kernels.go), same error messages —
// which is what the differential suite pins.

import (
	"fmt"
	"math"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"dio/internal/tsdb"
)

// physOp is one compiled operator. statsIdx is the operator's dense slot
// in the plan's stats skeleton (promoted from the embedded opMeta).
type physOp interface {
	exec(p *part, ts int64) (Value, error)
	statsIdx() int
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
// boundary, which on the batched hot path saved one heap allocation per
// operator per step (the interface box).
type vecExecer interface {
	physOp
	execVec(p *part, ts int64) (Vector, error)
}

// opMeta is embedded by every operator: its stats-slot index, assigned at
// compile time so per-execution collection is a dense array update with
// no lookups or allocation.
type opMeta struct{ sx int }

func (m *opMeta) statsIdx() int { return m.sx }

// compiledPlan is an executable physical plan plus its logical source
// (kept for Explain and for the scan table the executor prefetches).
type compiledPlan struct {
	plan *Plan
	root physOp
	// nCursors counts selector use sites: each gets a per-partition
	// cursor slot for monotone multi-step execution.
	nCursors int
	// distScans maps distribute-node id → scan index, for the executor's
	// per-shard prefetch and its order-preservation guard. Empty when the
	// plan has no distribute nodes.
	distScans []int
	// stats is the per-operator skeleton EXPLAIN ANALYZE collects into:
	// one node per operator, labelled with the logical node's describe()
	// so the analyzed tree matches the plain Explain tree.
	stats []statsNode
}

type compiler struct {
	cursors   int
	distScans []int
	stats     []statsNode
}

// compilePlan lowers plan to physical operators.
func compilePlan(plan *Plan) (*compiledPlan, error) {
	c := &compiler{distScans: make([]int, plan.dists)}
	root, err := c.compile(plan.root)
	if err != nil {
		return nil, err
	}
	return &compiledPlan{plan: plan, root: root, nCursors: c.cursors, distScans: c.distScans, stats: c.stats}, nil
}

// compile lowers one logical node and registers the operator's stats
// slot. Children lower first (inside lower's recursion), so their slot
// indexes are known when the parent's skeleton node links to them.
func (c *compiler) compile(n logNode) (physOp, error) {
	op, err := c.lower(n)
	if err != nil {
		return nil, err
	}
	sn := statsNode{label: n.describe(), dist: -1}
	for _, k := range opKids(op) {
		sn.kids = append(sn.kids, k.statsIdx())
	}
	if d, ok := op.(*pDistAgg); ok {
		sn.dist, sn.shards = d.distID, d.shards
	}
	c.setStatsIdx(op, len(c.stats))
	c.stats = append(c.stats, sn)
	return op, nil
}

// setStatsIdx writes the assigned slot into the operator's embedded meta.
func (c *compiler) setStatsIdx(op physOp, idx int) {
	type setter interface{ setIdx(int) }
	op.(setter).setIdx(idx)
}

func (m *opMeta) setIdx(i int) { m.sx = i }

// opKids enumerates an operator's children in plan order — the stats
// skeleton's edge list.
func opKids(op physOp) []physOp {
	switch o := op.(type) {
	case *pNeg:
		return []physOp{o.child}
	case *pSubquery:
		return []physOp{o.child}
	case *pRangeFunc:
		if o.scalarArg != nil {
			return []physOp{o.arg, o.scalarArg}
		}
		return []physOp{o.arg}
	case *pVectorMath:
		out := make([]physOp, 0, 1+len(o.scalars))
		out = append(out, o.vec)
		return append(out, o.scalars...)
	case *pVectorFn:
		return []physOp{o.arg}
	case *pScalarFn:
		return []physOp{o.arg}
	case *pAbsent:
		return []physOp{o.arg}
	case *pHistogram:
		return []physOp{o.phi, o.vec}
	case *pLabelReplace:
		return []physOp{o.vec}
	case *pAgg:
		if o.param != nil {
			return []physOp{o.child, o.param}
		}
		return []physOp{o.child}
	case *pDistAgg:
		if o.param != nil {
			return []physOp{o.child, o.param}
		}
		return []physOp{o.child}
	case *pBinary:
		return []physOp{o.lhs, o.rhs}
	}
	return nil
}

func (c *compiler) lower(n logNode) (physOp, error) {
	switch x := n.(type) {
	case *lConst:
		return &pConst{v: x.val}, nil
	case *lString:
		return &pString{s: x.val}, nil
	case *lNeg:
		child, err := c.compile(x.child)
		if err != nil {
			return nil, err
		}
		return &pNeg{child: child}, nil
	case *lScan:
		op := &pScan{scanIdx: x.scan.ID, cur: c.cursors, offMs: x.offset.Milliseconds()}
		c.cursors++
		return op, nil
	case *lMatrix:
		op := &pMatrix{scanIdx: x.scan.ID, cur: c.cursors, offMs: x.offset.Milliseconds(), rngMs: x.rng.Milliseconds()}
		c.cursors++
		return op, nil
	case *lSubquery:
		child, err := c.compile(x.child)
		if err != nil {
			return nil, err
		}
		return &pSubquery{
			child:  child,
			offMs:  x.ast.Offset.Milliseconds(),
			rngMs:  x.ast.Range.Milliseconds(),
			stepMs: x.ast.Step.Milliseconds(),
		}, nil
	case *lCall:
		return c.compileCall(x)
	case *lAgg:
		child, err := c.compile(x.child)
		if err != nil {
			return nil, err
		}
		op := &pAgg{ast: x.ast, child: child}
		if x.ast.Param != nil {
			if sl, ok := x.ast.Param.(*StringLiteral); ok {
				op.strParam = sl.Val
			} else {
				op.param, err = c.compile(x.param)
				if err != nil {
					return nil, err
				}
			}
		}
		return op, nil
	case *lDist:
		child, err := c.compile(x.agg.child)
		if err != nil {
			return nil, err
		}
		op := &pDistAgg{ast: x.agg.ast, child: child, distID: x.id, shards: x.shards}
		if x.agg.ast.Param != nil {
			if sl, ok := x.agg.ast.Param.(*StringLiteral); ok {
				op.strParam = sl.Val
			} else {
				op.param, err = c.compile(x.agg.param)
				if err != nil {
					return nil, err
				}
			}
		}
		c.distScans[x.id] = x.scan.ID
		return op, nil
	case *lBinary:
		lhs, err := c.compile(x.lhs)
		if err != nil {
			return nil, err
		}
		rhs, err := c.compile(x.rhs)
		if err != nil {
			return nil, err
		}
		// Branch-parallel evaluation only pays off when both sides touch
		// storage; scalar-literal sides evaluate in nanoseconds.
		return &pBinary{ast: x.ast, lhs: lhs, rhs: rhs, parOK: subtreeHasScan(x.lhs) && subtreeHasScan(x.rhs)}, nil
	}
	return nil, fmt.Errorf("promql: cannot compile %T", n)
}

func (c *compiler) compileCall(x *lCall) (physOp, error) {
	name := x.ast.Func.Name
	arg := func(i int) (physOp, error) { return c.compile(x.args[i]) }
	switch name {
	case "time":
		return &pTime{}, nil
	case "vector":
		a, err := arg(0)
		if err != nil {
			return nil, err
		}
		return &pVectorFn{arg: a}, nil
	case "scalar":
		a, err := arg(0)
		if err != nil {
			return nil, err
		}
		return &pScalarFn{arg: a}, nil
	case "absent":
		a, err := arg(0)
		if err != nil {
			return nil, err
		}
		return &pAbsent{arg: a}, nil
	case "histogram_quantile":
		phi, err := arg(0)
		if err != nil {
			return nil, err
		}
		vec, err := arg(1)
		if err != nil {
			return nil, err
		}
		return &pHistogram{phi: phi, vec: vec}, nil
	case "label_replace":
		vec, err := arg(0)
		if err != nil {
			return nil, err
		}
		lits := make([]string, 4)
		for i := 1; i <= 4; i++ {
			lits[i-1], err = stringLitArg(x.ast.Args[i])
			if err != nil {
				return nil, err
			}
		}
		op := &pLabelReplace{vec: vec, dst: lits[0], repl: lits[1], src: lits[2]}
		// The pattern compiles once per plan instead of once per step; a
		// bad pattern is reported at exec time after the input vector
		// evaluates, exactly where the test oracle reports it.
		op.re, op.reErr = compileLabelReplace(lits[3])
		return op, nil
	}
	if x.matrixArg >= 0 {
		a, err := arg(x.matrixArg)
		if err != nil {
			return nil, err
		}
		w, ok := a.(windowOp)
		if !ok {
			return nil, fmt.Errorf("promql: not a range-vector expression: %T", x.args[x.matrixArg])
		}
		op := &pRangeFunc{name: name, arg: w}
		// Scalar parameters (quantile_over_time's φ, predict_linear's
		// horizon): the first scalar-typed argument, evaluated after the
		// range argument like the test oracle does.
		for i, astArg := range x.ast.Args {
			if astArg.Type() == ValueScalar {
				op.scalarArg, err = arg(i)
				if err != nil {
					return nil, err
				}
				break
			}
		}
		return op, nil
	}
	// Simple vector→vector math functions.
	vec, err := arg(0)
	if err != nil {
		return nil, err
	}
	scalars := make([]physOp, 0, len(x.args)-1)
	for i := 1; i < len(x.args); i++ {
		s, err := arg(i)
		if err != nil {
			return nil, err
		}
		scalars = append(scalars, s)
	}
	return &pVectorMath{name: name, vec: vec, scalars: scalars}, nil
}

// stringLitArg extracts a string literal argument, unwrapping parens
// (checkTypes has already guaranteed the string type).
func stringLitArg(e Expr) (string, error) {
	for {
		p, ok := e.(*ParenExpr)
		if !ok {
			break
		}
		e = p.Expr
	}
	if s, ok := e.(*StringLiteral); ok {
		return s.Val, nil
	}
	return "", fmt.Errorf("promql: expected string literal, got %s", e.Type())
}

// subtreeHasScan reports whether the logical subtree touches storage.
func subtreeHasScan(n logNode) bool {
	switch n.(type) {
	case *lScan, *lMatrix:
		return true
	}
	for _, k := range n.kids() {
		if subtreeHasScan(k) {
			return true
		}
	}
	return false
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
			out = append(out, VSample{Labels: p.al.dropName(s.Labels), T: s.T, V: -s.V})
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

// pMatrix is a range-vector window read over prefetched series.
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
	out, total := p.windows(o.scanIdx, o.cur, start, end)
	p.noteSamples(o.sx, total)
	if err := p.account(total); err != nil {
		return nil, 0, 0, err
	}
	return out, start, end, nil
}

func (o *pMatrix) exec(p *part, ts int64) (Value, error) {
	m, _, _, err := o.window(p, ts)
	return m, err
}

// pSubquery evaluates its child at every inner step of the window
// (start, end], accumulating a matrix in first-seen series order (the
// same order the test oracle produces).
type pSubquery struct {
	opMeta
	child  physOp
	offMs  int64
	rngMs  int64
	stepMs int64
}

func (o *pSubquery) window(p *part, ts int64) (Matrix, int64, int64, error) {
	end := ts - o.offMs
	start := end - o.rngMs
	if o.stepMs <= 0 {
		return nil, 0, 0, fmt.Errorf("promql: subquery step must be positive")
	}
	acc := make(map[string]*MSeries)
	var order []string
	n := (end - start) / o.stepMs
	for i := n; i >= 0; i-- {
		t := end - i*o.stepMs
		if t <= start {
			continue
		}
		v, err := p.eval(o.child, t)
		if err != nil {
			return nil, 0, 0, err
		}
		var vec Vector
		switch x := v.(type) {
		case Vector:
			vec = x
		case Scalar:
			vec = Vector{{Labels: nil, T: x.T, V: x.V}}
		default:
			return nil, 0, 0, fmt.Errorf("promql: subquery inner expression must be a vector or scalar")
		}
		for _, s := range vec {
			key := p.keyOf(s.Labels)
			ms, ok := acc[key]
			if !ok {
				ms = &MSeries{Labels: s.Labels}
				acc[key] = ms
				order = append(order, key)
			}
			ms.Samples = append(ms.Samples, tsdb.Sample{T: t, V: s.V})
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
}

func (o *pRangeFunc) exec(p *part, ts int64) (Value, error) {
	v, err := o.execVec(p, ts)
	if err != nil {
		return nil, err
	}
	return v, nil
}

func (o *pRangeFunc) execVec(p *part, ts int64) (Vector, error) {
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
	if p.seriesPar && len(matrix) >= minSeriesForParallel {
		return p.rangeFuncParallel(o.name, matrix, start, end, ts, scalarParam)
	}
	return applyRangeFunc(p.al, o.name, matrix, start, end, ts, scalarParam)
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
	vec            physOp
	dst, repl, src string
	re             *regexp.Regexp
	reErr          error
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
	return aggregateVector(p.al, o.ast, vec, param, o.strParam, ts)
}

// pBinary joins two operand batches. When both sides touch storage and
// the execution mode allows it (single-step, stateless scans), the
// right side evaluates on a worker goroutine concurrently with the left.
type pBinary struct {
	opMeta
	ast      *BinaryExpr
	lhs, rhs physOp
	parOK    bool
}

func (o *pBinary) exec(p *part, ts int64) (Value, error) {
	var lv, rv Value
	var lerr, rerr error
	if o.parOK && p.branchPar && p.st.acquireWorker() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer p.st.releaseWorker()
			rv, rerr = p.eval(o.rhs, ts)
		}()
		lv, lerr = p.eval(o.lhs, ts)
		<-done
	} else {
		lv, lerr = p.eval(o.lhs, ts)
		if lerr == nil {
			rv, rerr = p.eval(o.rhs, ts)
		}
	}
	// The left error wins, matching the test oracle's sequential
	// order (it never reached the right side).
	if lerr != nil {
		return nil, lerr
	}
	if rerr != nil {
		return nil, rerr
	}
	return applyBinary(p.al, o.ast, lv, rv, ts)
}

// pDistAgg is the distributed form of pAgg: the shard-local child subtree
// evaluates once per shard (concurrently, worker pool permitting) over
// that shard's series views; the per-shard vectors k-way merge back into
// the exact order the unsharded child would produce; then the unchanged
// central aggregation kernel folds the merged vector. Any guard violation
// (per-shard order, cross-shard key ties, name-first labels) demotes the
// node — stickily, per execution — to the gather-then-evaluate fallback
// over the merged view, so the distributed path can only ever change
// performance, never bytes.
type pDistAgg struct {
	opMeta
	ast      *AggregateExpr
	child    physOp
	param    physOp // nil for string or absent parameters
	strParam string
	distID   int
	shards   int
}

func (o *pDistAgg) exec(p *part, ts int64) (Value, error) {
	v, err := o.execVec(p, ts)
	if err != nil {
		return nil, err
	}
	return v, nil
}

func (o *pDistAgg) execVec(p *part, ts int64) (Vector, error) {
	vec, err := o.childVector(p, ts)
	if err != nil {
		return nil, err
	}
	// Parameter after the input, on the merged view — pAgg's exact order.
	var param float64
	if o.param != nil {
		param, err = p.scalar(o.param, ts)
		if err != nil {
			return nil, err
		}
	}
	return aggregateVector(p.al, o.ast, vec, param, o.strParam, ts)
}

// childVector produces the aggregation input: per-shard fan-out + merge
// on the fast path, a plain merged-view evaluation when demoted or when
// the execution has no per-shard views (unsharded storage serving a
// cached sharded plan never happens — plans are cached per engine — but
// the nil check keeps the operator total).
func (o *pDistAgg) childVector(p *part, ts int64) (Vector, error) {
	st := p.st
	if st.shardSeries == nil || st.distDemoted[o.distID].Load() {
		if st.shardSeries != nil {
			st.distFallbacks.Add(1)
		}
		return p.vector(o.child, ts)
	}
	parts := p.shardParts(o.shards)
	vecs := make([]Vector, o.shards)
	errs := make([]error, o.shards)
	// shardVec records each shard's fan-out wall time into the stats slab
	// (EXPLAIN ANALYZE's per-shard latencies).
	shardVec := func(i int) (Vector, error) {
		begin := time.Now()
		v, err := parts[i].vector(o.child, ts)
		atomic.AddInt64(&st.shardWallNs[o.distID*o.shards+i], int64(time.Since(begin)))
		return v, err
	}
	var wg sync.WaitGroup
	for i := 1; i < o.shards; i++ {
		if st.acquireWorker() {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer st.releaseWorker()
				vecs[i], errs[i] = shardVec(i)
			}(i)
		} else {
			vecs[i], errs[i] = shardVec(i)
		}
	}
	vecs[0], errs[0] = shardVec(0)
	wg.Wait()
	if p.cursors != nil {
		// Drain the shared shard budget back into the sequential counter.
		p.samples = int(p.distAcc.Load())
	}
	var firstErr error
	for _, err := range errs {
		if err != nil && (firstErr == nil || (isCancellation(firstErr) && !isCancellation(err))) {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	merged, ok := p.mergeShardVectors(vecs)
	if !ok {
		st.distDemoted[o.distID].Store(true)
		st.distFallbacks.Add(1)
		return p.vector(o.child, ts)
	}
	st.distPartials.Add(1)
	return merged, nil
}
