package promql

// plan.go — compiling a query. compile lowers the parsed AST to the
// physical operators of physical.go in one recursive walk, which also
// applies every optimization the plan records:
//
//   - constfold:       scalar subtrees of literals collapse to one constant
//   - selector-dedup:  selectors with identical matchers share one ScanNode
//     regardless of offset or window, so the executor fetches each series
//     set exactly once per query
//   - pushdown:        every ScanNode becomes one entry of a single batched
//     tsdb.SelectBatch call, resolving all matchers against the postings
//     index under one read lock
//   - range-hints:     the walk carries the reachable evaluation offsets
//     down, so each ScanNode's hint widens to the window of sample
//     timestamps its use sites can read — relative to the evaluation
//     range, so the plan is time-independent and cacheable — letting
//     SelectBatch clamp its views up front
//
// Plans never embed absolute timestamps: scan hints are stored as
// millisecond offsets relative to the evaluation range [start, end], which
// is what lets Engine cache one compiled plan per query text and share it
// across dashboard panels and repeated asks. EXPLAIN, the compact form and
// EXPLAIN ANALYZE all render the operator tree, walked through opKids.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"dio/internal/tsdb"
)

// ScanNode is one deduplicated storage selection: the fetch unit of the
// plan. Several selector use sites (different offsets, instant and matrix
// windows) may share a ScanNode when their matchers agree.
type ScanNode struct {
	ID       int
	Selector string // display form (metric name + matchers)
	Matchers []*tsdb.Matcher
	// RelLo/RelHi bound the sample timestamps this scan can be asked for,
	// in milliseconds relative to the evaluation range: the executor reads
	// samples within [start+RelLo, end+RelHi]. Saturated values mean
	// "unbounded" (hint arithmetic overflowed; correctness keeps, the
	// clamp just widens).
	RelLo, RelHi int64
	Uses         int // selector use sites sharing this scan
}

func (s *ScanNode) widen(lo, hi int64) {
	if s.Uses == 1 {
		s.RelLo, s.RelHi = lo, hi
		return
	}
	s.RelLo, s.RelHi = min(s.RelLo, lo), max(s.RelHi, hi)
}

// satAdd/satSub do saturating int64 millisecond arithmetic: hint offsets
// survive adversarial (fuzzed) durations like nested [200y:1ms] subqueries
// by pinning to ±∞ instead of wrapping.
func satAdd(a, b int64) int64 {
	c := a + b
	if b > 0 && c < a {
		return math.MaxInt64
	}
	if b < 0 && c > a {
		return math.MinInt64
	}
	return c
}

func satSub(a, b int64) int64 {
	c := a - b
	if b > 0 && c > a {
		return math.MinInt64
	}
	if b < 0 && c < a {
		return math.MaxInt64
	}
	return c
}

// compiledPlan is one query's operator tree plus what the executor and
// the renderers read beside it. Nothing in it changes after compile, so
// the Engine plan cache shares it across concurrent executions.
type compiledPlan struct {
	root  physOp
	scans []*ScanNode
	// nCursors counts selector use sites: each gets a per-part cursor
	// slot for monotone multi-step execution.
	nCursors int
	// nSubs counts subqueries: each gets a per-part slot for the inner
	// steps its window still holds.
	nSubs int
	// labels holds every operator's display line by stats slot, so its
	// length is the slot count; rendered once for Explain and for each
	// EXPLAIN ANALYZE.
	labels  []string
	query   string // canonical form
	passes  string // the optimizations applied, in order
	compact string // the one-line form: span attribute and sandbox audit
}

// compiler is the state of one compile walk.
type compiler struct {
	lookbackMs int64
	scans      []*ScanNode
	byKey      map[string]*ScanNode
	folded     int
	shared     int
	cursors    int // selector use sites seen
	subs       int // subqueries seen
}

// compile lowers expr to an executable plan.
func compile(expr Expr, opts EngineOptions) (*compiledPlan, error) {
	c := &compiler{lookbackMs: opts.LookbackDelta.Milliseconds(), byKey: make(map[string]*ScanNode)}
	root, err := c.op(expr, 0, 0)
	if err != nil {
		return nil, err
	}
	var passes []string
	if c.folded > 0 {
		passes = append(passes, fmt.Sprintf("constfold(%d)", c.folded))
	}
	passes = append(passes,
		fmt.Sprintf("selector-dedup(%d scans, %d shared)", len(c.scans), c.shared),
		fmt.Sprintf("pushdown(%d matchers -> 1 SelectBatch)", len(c.scans)),
		"range-hints")
	cp := &compiledPlan{root: root, scans: c.scans, nCursors: c.cursors, nSubs: c.subs,
		query: expr.String(), passes: strings.Join(passes, ", ")}
	cp.label(root)
	var b strings.Builder
	compactNode(&b, root)
	cp.compact = b.String() + " | " + cp.passes
	return cp, nil
}

// op compiles e. Evaluation timestamps reaching e lie in [start+lo,
// end+hi] of the evaluation range; selectors widen their scan's hint by
// what they read back from there.
func (c *compiler) op(e Expr, lo, hi int64) (physOp, error) {
	switch n := e.(type) {
	case *NumberLiteral:
		return &pConst{v: n.Val}, nil
	case *StringLiteral:
		return &pString{s: n.Val}, nil
	case *ParenExpr:
		return c.op(n.Expr, lo, hi)
	case *UnaryExpr:
		child, err := c.op(n.Expr, lo, hi)
		if err != nil || n.Op == OpAdd {
			return child, err
		}
		if k, ok := child.(*pConst); ok {
			c.folded++
			k.v = -k.v
			return k, nil
		}
		return &pNeg{child: child}, nil
	case *VectorSelector:
		off := n.Offset.Milliseconds()
		s := c.scan(n, satSub(satSub(lo, off), c.lookbackMs), satSub(hi, off))
		return &pScan{scanIdx: s.ID, cur: c.useSite(), offMs: off}, nil
	case *MatrixSelector:
		off, rng := n.VectorSelector.Offset.Milliseconds(), n.Range.Milliseconds()
		s := c.scan(n.VectorSelector, satSub(satSub(lo, off), rng), satSub(hi, off))
		return &pMatrix{scanIdx: s.ID, cur: c.useSite(), offMs: off, rngMs: rng}, nil
	case *SubqueryExpr:
		// Inner timestamps live in (ts-offset-range, ts-offset].
		off, rng := n.Offset.Milliseconds(), n.Range.Milliseconds()
		child, err := c.op(n.Expr, satSub(satSub(lo, off), rng), satSub(hi, off))
		if err != nil {
			return nil, err
		}
		c.subs++
		return &pSubquery{child: child, slot: c.subs - 1, offMs: off, rngMs: rng, stepMs: n.Step.Milliseconds()}, nil
	case *Call:
		return c.call(n, lo, hi)
	case *AggregateExpr:
		child, err := c.op(n.Expr, lo, hi)
		if err != nil {
			return nil, err
		}
		op := &pAgg{ast: n, child: child}
		if sl, ok := n.Param.(*StringLiteral); ok {
			op.strParam = sl.Val
		} else if n.Param != nil {
			if op.param, err = c.op(n.Param, lo, hi); err != nil {
				return nil, err
			}
		}
		return op, nil
	case *BinaryExpr:
		lhs, err := c.op(n.LHS, lo, hi)
		if err != nil {
			return nil, err
		}
		rhs, err := c.op(n.RHS, lo, hi)
		if err != nil {
			return nil, err
		}
		lc, lok := lhs.(*pConst)
		rc, rok := rhs.(*pConst)
		if lok && rok && (!n.Op.isComparison() || n.ReturnBool) && !n.Op.isSetOp() {
			if v, keep := binArith(n.Op, lc.v, rc.v, n.ReturnBool); keep {
				c.folded++
				lc.v = v
				return lc, nil
			}
		}
		return &pBinary{ast: n, lhs: lhs, rhs: rhs}, nil
	}
	return nil, fmt.Errorf("promql: cannot plan %T", e)
}

// scan returns the shared ScanNode for a selector's matchers, creating it
// on first sight, and widens its hint to [lo, hi]. Offsets and windows
// intentionally do not participate in the key: they only move the read
// window, which the hint covers.
func (c *compiler) scan(vs *VectorSelector, lo, hi int64) *ScanNode {
	var k strings.Builder
	for _, m := range vs.Matchers {
		k.WriteString(m.Name)
		k.WriteString(m.Type.String())
		k.WriteString(m.Value)
		k.WriteByte(0)
	}
	key := k.String()
	s, ok := c.byKey[key]
	if ok {
		c.shared++
		s.Uses++
	} else {
		display := *vs
		display.Offset = 0
		s = &ScanNode{ID: len(c.scans), Selector: display.String(), Matchers: vs.Matchers, Uses: 1}
		c.scans = append(c.scans, s)
		c.byKey[key] = s
	}
	s.widen(lo, hi)
	return s
}

// useSite assigns a selector use site its cursor slot.
func (c *compiler) useSite() int {
	c.cursors++
	return c.cursors - 1
}

// call compiles a function call. Arguments compile in AST order, so scans
// number in the order the query reads.
func (c *compiler) call(n *Call, lo, hi int64) (physOp, error) {
	name := n.Func.Name
	switch name {
	case "time":
		return &pTime{}, nil
	case "label_replace":
		vec, err := c.op(n.Args[0], lo, hi)
		if err != nil {
			return nil, err
		}
		var lits [4]string
		for i := range lits {
			if lits[i], err = stringLitArg(n.Args[i+1]); err != nil {
				return nil, err
			}
		}
		op := &pLabelReplace{vec: vec, dst: lits[0], repl: lits[1], src: lits[2], pattern: lits[3]}
		// The pattern compiles once per plan instead of once per step; a
		// bad pattern is reported at exec time after the input vector
		// evaluates, exactly where the test oracle reports it.
		op.re, op.reErr = compileLabelReplace(lits[3])
		return op, nil
	}
	args := make([]physOp, len(n.Args))
	for i, a := range n.Args {
		var err error
		if args[i], err = c.op(a, lo, hi); err != nil {
			return nil, err
		}
	}
	switch name {
	case "vector":
		return &pVectorFn{arg: args[0]}, nil
	case "scalar":
		return &pScalarFn{arg: args[0]}, nil
	case "absent":
		return &pAbsent{arg: args[0]}, nil
	case "histogram_quantile":
		return &pHistogram{phi: args[0], vec: args[1]}, nil
	}
	if m := matrixArg(n); m >= 0 {
		w, ok := args[m].(windowOp)
		if !ok {
			return nil, fmt.Errorf("promql: not a range-vector expression: %s", n.Args[m])
		}
		op := &pRangeFunc{name: name, arg: w}
		// Scalar parameters (quantile_over_time's φ, predict_linear's
		// horizon): the first scalar-typed argument.
		for i, a := range n.Args {
			if a.Type() == ValueScalar {
				op.scalarArg, op.scalarFirst = args[i], i < m
				break
			}
		}
		return op, nil
	}
	// Simple vector→vector math functions.
	return &pVectorMath{name: name, vec: args[0], scalars: args[1:]}, nil
}

// matrixArg indexes a range function's range-vector argument, -1 for
// other calls. It unwraps one paren, as the test oracle's unwrapMatrixArg
// does: a doubly parenthesised range vector is a vector-math argument and
// errors.
func matrixArg(n *Call) int {
	for i, a := range n.Args {
		if p, ok := a.(*ParenExpr); ok {
			a = p.Expr
		}
		switch a.(type) {
		case *MatrixSelector, *SubqueryExpr:
			return i
		}
	}
	return -1
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

// selectHints materialises the scans' clamp windows for a concrete
// evaluation range [startMs, endMs].
func (cp *compiledPlan) selectHints(startMs, endMs int64) []tsdb.SelectHint {
	hints := make([]tsdb.SelectHint, len(cp.scans))
	for i, s := range cp.scans {
		h := tsdb.NoClamp(s.Matchers)
		if s.RelLo != math.MinInt64 {
			h.MinT = satAdd(startMs, s.RelLo)
		}
		if s.RelHi != math.MaxInt64 {
			h.MaxT = satAdd(endMs, s.RelHi)
		}
		hints[i] = h
	}
	return hints
}

// --- rendering ------------------------------------------------------------

// label gives every operator under op its stats slot, in post-order, and
// renders its display line into that slot.
func (cp *compiledPlan) label(op physOp) {
	var buf [4]physOp
	for _, k := range opKids(op, buf[:0]) {
		cp.label(k)
	}
	op.setSlot(len(cp.labels))
	cp.labels = append(cp.labels, cp.describe(op))
}

func (cp *compiledPlan) describe(op physOp) string {
	switch o := op.(type) {
	case *pConst:
		return "const " + formatFloat(o.v)
	case *pString:
		return "string " + strconv.Quote(o.s)
	case *pNeg:
		return "neg"
	case *pScan:
		return cp.scanLabel("", o.scanIdx, o.offMs)
	case *pMatrix:
		return cp.scanLabel("window ["+msDuration(o.rngMs)+"] ", o.scanIdx, o.offMs)
	case *pSubquery:
		return "subquery [" + msDuration(o.rngMs) + ":" + msDuration(o.stepMs) + "]" + offsetSuffix(o.offMs)
	case *pAgg:
		d := "agg " + o.ast.Op.String()
		if o.ast.Without {
			d += " without (" + strings.Join(o.ast.Grouping, ", ") + ")"
		} else if len(o.ast.Grouping) > 0 {
			d += " by (" + strings.Join(o.ast.Grouping, ", ") + ")"
		}
		return d
	case *pBinary:
		return describeBinary(o.ast)
	}
	kind, name := callName(op)
	return kind + " " + name + "()"
}

func (cp *compiledPlan) scanLabel(prefix string, scanIdx int, offMs int64) string {
	s := cp.scans[scanIdx]
	return fmt.Sprintf("%sscan #%d %s%s %s", prefix, s.ID, s.Selector, offsetSuffix(offMs), s.hintString())
}

func describeBinary(n *BinaryExpr) string {
	kind := "binop"
	if n.Op.isSetOp() || n.Matching != nil {
		kind = "join"
	}
	d := kind + " " + n.Op.String()
	if n.ReturnBool {
		d += " bool"
	}
	if m := n.Matching; m != nil {
		if m.On {
			d += " on(" + strings.Join(m.MatchingLabels, ", ") + ")"
		} else if len(m.MatchingLabels) > 0 {
			d += " ignoring(" + strings.Join(m.MatchingLabels, ", ") + ")"
		}
		switch m.Card {
		case CardManyToOne:
			d += " group_left"
		case CardOneToMany:
			d += " group_right"
		}
	}
	return d
}

// callName gives a function-call operator's kind and function name: a
// range function, a per-sample map, or a call the evaluator special-cases.
func callName(op physOp) (kind, name string) {
	switch o := op.(type) {
	case *pRangeFunc:
		return "range_fn", o.name
	case *pVectorMath:
		return "map", o.name
	case *pTime:
		return "call", "time"
	case *pVectorFn:
		return "call", "vector"
	case *pScalarFn:
		return "call", "scalar"
	case *pAbsent:
		return "call", "absent"
	case *pHistogram:
		return "call", "histogram_quantile"
	case *pLabelReplace:
		return "call", "label_replace"
	}
	panic(fmt.Sprintf("promql: %T is not a function call", op))
}

func msDuration(ms int64) string { return FormatDuration(time.Duration(ms) * time.Millisecond) }

func offsetSuffix(offMs int64) string {
	if offMs > 0 {
		return " offset " + msDuration(offMs)
	}
	return ""
}

// hintString renders the scan's clamp window relative to the range.
func (s *ScanNode) hintString() string {
	return "hint [" + relTime(s.RelLo, "start") + ", " + relTime(s.RelHi, "end") + "]"
}

func relTime(rel int64, base string) string {
	switch {
	case rel == math.MinInt64:
		return "-inf"
	case rel == math.MaxInt64:
		return "+inf"
	case rel == 0:
		return base
	case rel < 0:
		return base + "-" + msDuration(-rel)
	default:
		return base + "+" + msDuration(rel)
	}
}

// tree renders the multi-line explain form: canonical query, pass list,
// then the operator tree.
func (cp *compiledPlan) tree() string {
	var b strings.Builder
	b.WriteString("plan for: " + cp.query + "\npasses: " + cp.passes + "\n")
	cp.renderTree(&b, cp.root, "", "")
	return b.String()
}

func (cp *compiledPlan) renderTree(b *strings.Builder, op physOp, head, tail string) {
	b.WriteString(head)
	b.WriteString(cp.labels[op.statsIdx()])
	b.WriteByte('\n')
	var buf [4]physOp
	kids := opKids(op, buf[:0])
	for i, k := range kids {
		if i == len(kids)-1 {
			cp.renderTree(b, k, tail+"└─ ", tail+"   ")
		} else {
			cp.renderTree(b, k, tail+"├─ ", tail+"│  ")
		}
	}
}

// compactNode renders op's subtree on one line: literals, scan numbers and
// the function, operator or window each node applies.
func compactNode(b *strings.Builder, op physOp) {
	var head string
	var lits []string
	switch o := op.(type) {
	case *pConst:
		b.WriteString(formatFloat(o.v))
		return
	case *pString:
		b.WriteString(strconv.Quote(o.s))
		return
	case *pScan:
		fmt.Fprintf(b, "scan#%d", o.scanIdx)
		return
	case *pMatrix:
		fmt.Fprintf(b, "window[%s](scan#%d)", msDuration(o.rngMs), o.scanIdx)
		return
	case *pBinary:
		b.WriteByte('(')
		compactNode(b, o.lhs)
		b.WriteString(" " + o.ast.Op.String() + " ")
		compactNode(b, o.rhs)
		b.WriteByte(')')
		return
	case *pNeg:
		head = "-"
	case *pSubquery:
		head = "subquery[" + msDuration(o.rngMs) + ":" + msDuration(o.stepMs) + "]"
	case *pAgg:
		head = o.ast.Op.String()
	case *pLabelReplace:
		head, lits = "label_replace", []string{o.dst, o.repl, o.src, o.pattern}
	default:
		_, head = callName(op)
	}
	b.WriteString(head)
	b.WriteByte('(')
	var buf [4]physOp
	for i, k := range opKids(op, buf[:0]) {
		if i > 0 {
			b.WriteString(", ")
		}
		compactNode(b, k)
	}
	for _, l := range lits {
		b.WriteString(", " + strconv.Quote(l))
	}
	b.WriteByte(')')
}
