package promql

// logical.go — the first of the three plan-based execution layers
// (logical plan → physical plan → executor; see physical.go, exec.go).
//
// A logical plan is built once per canonical query string from the parsed
// AST, then rewritten by a fixed sequence of optimizer passes:
//
//   - constfold:       scalar subtrees of literals collapse to one constant
//   - selector-dedup:  selectors with identical matchers share one ScanNode
//     regardless of offset or window, so the executor fetches each series
//     set exactly once per query
//   - pushdown:        every ScanNode becomes one entry of a single batched
//     tsdb.SelectBatch call, resolving all matchers against the postings
//     index under one read lock
//   - range-hints:     a recursive walk computes, per ScanNode, the window
//     of sample timestamps the plan can possibly read — relative to the
//     evaluation range, so the hinted plan is time-independent and
//     cacheable — letting SelectBatch clamp its views up front
//
// Plans never embed absolute timestamps: scan hints are stored as
// millisecond offsets relative to the evaluation range [start, end], which
// is what lets Engine cache one compiled plan per query text and share it
// across dashboard panels and repeated asks.

import (
	"fmt"
	"math"
	"strings"
	"time"

	"dio/internal/tsdb"
)

// ScanNode is one deduplicated storage selection: the fetch unit of the
// physical plan. Several selector use sites (different offsets, instant
// and matrix windows) may share a ScanNode when their matchers agree.
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
	hinted       bool
}

func (s *ScanNode) widen(lo, hi int64) {
	if !s.hinted {
		s.RelLo, s.RelHi, s.hinted = lo, hi, true
		return
	}
	if lo < s.RelLo {
		s.RelLo = lo
	}
	if hi > s.RelHi {
		s.RelHi = hi
	}
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

// logNode is one operator of the logical plan tree.
type logNode interface {
	describe() string
	kids() []logNode
}

type lConst struct{ val float64 }

func (n *lConst) describe() string { return "const " + formatFloat(n.val) }
func (n *lConst) kids() []logNode  { return nil }

type lString struct{ val string }

func (n *lString) describe() string { return fmt.Sprintf("string %q", n.val) }
func (n *lString) kids() []logNode  { return nil }

// lScan is an instant-vector selector use site over a shared ScanNode.
type lScan struct {
	scan   *ScanNode
	offset time.Duration
}

func (n *lScan) describe() string {
	d := fmt.Sprintf("scan #%d %s", n.scan.ID, n.scan.Selector)
	if n.offset > 0 {
		d += " offset " + FormatDuration(n.offset)
	}
	return d + " " + n.scan.hintString()
}
func (n *lScan) kids() []logNode { return nil }

// lMatrix is a range-vector window over a shared ScanNode.
type lMatrix struct {
	scan   *ScanNode
	offset time.Duration
	rng    time.Duration
}

func (n *lMatrix) describe() string {
	d := fmt.Sprintf("window [%s] scan #%d %s", FormatDuration(n.rng), n.scan.ID, n.scan.Selector)
	if n.offset > 0 {
		d += " offset " + FormatDuration(n.offset)
	}
	return d + " " + n.scan.hintString()
}
func (n *lMatrix) kids() []logNode { return nil }

type lSubquery struct {
	ast   *SubqueryExpr
	child logNode
}

func (n *lSubquery) describe() string {
	d := fmt.Sprintf("subquery [%s:%s]", FormatDuration(n.ast.Range), FormatDuration(n.ast.Step))
	if n.ast.Offset > 0 {
		d += " offset " + FormatDuration(n.ast.Offset)
	}
	return d
}
func (n *lSubquery) kids() []logNode { return []logNode{n.child} }

type lCall struct {
	ast  *Call
	args []logNode
	// matrixArg indexes the range-vector argument in args for range
	// functions; -1 otherwise.
	matrixArg int
}

func (n *lCall) describe() string {
	kind := "map"
	switch {
	case n.matrixArg >= 0:
		kind = "range_fn"
	case isSpecialCall(n.ast.Func.Name):
		kind = "call"
	}
	return kind + " " + n.ast.Func.Name + "()"
}
func (n *lCall) kids() []logNode { return n.args }

type lAgg struct {
	ast   *AggregateExpr
	child logNode
	param logNode // nil when the operator takes none or it is a string literal
}

func (n *lAgg) describe() string {
	d := "agg " + n.ast.Op.String()
	if n.ast.Without {
		d += " without (" + strings.Join(n.ast.Grouping, ", ") + ")"
	} else if len(n.ast.Grouping) > 0 {
		d += " by (" + strings.Join(n.ast.Grouping, ", ") + ")"
	}
	return d
}

func (n *lAgg) kids() []logNode {
	if n.param != nil {
		return []logNode{n.child, n.param}
	}
	return []logNode{n.child}
}

type lBinary struct {
	ast      *BinaryExpr
	lhs, rhs logNode
}

func (n *lBinary) describe() string {
	kind := "binop"
	if n.ast.Op.isSetOp() || n.ast.Matching != nil {
		kind = "join"
	}
	d := kind + " " + n.ast.Op.String()
	if n.ast.ReturnBool {
		d += " bool"
	}
	if m := n.ast.Matching; m != nil {
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
func (n *lBinary) kids() []logNode { return []logNode{n.lhs, n.rhs} }

type lNeg struct{ child logNode }

func (n *lNeg) describe() string { return "neg" }
func (n *lNeg) kids() []logNode  { return []logNode{n.child} }

// isSpecialCall lists the calls the evaluator special-cases before the
// range-function / vector-math dispatch (mirrors evalCall).
func isSpecialCall(name string) bool {
	switch name {
	case "time", "vector", "scalar", "absent", "histogram_quantile", "label_replace":
		return true
	}
	return false
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
		return base + "-" + FormatDuration(time.Duration(-rel)*time.Millisecond)
	default:
		return base + "+" + FormatDuration(time.Duration(rel)*time.Millisecond)
	}
}

// Plan is an optimized logical plan plus the bookkeeping the optimizer
// passes produced. Compile it with compilePlan (physical.go).
type Plan struct {
	root   logNode
	scans  []*ScanNode
	query  string   // canonical form
	passes []string // applied pass annotations, in order
}

// planBuilder accumulates scan dedup state while lowering the AST.
type planBuilder struct {
	scans  []*ScanNode
	byKey  map[string]*ScanNode
	folded int
	shared int
}

// newPlan lowers expr to a logical plan and runs the optimizer passes.
func newPlan(expr Expr, opts EngineOptions) (*Plan, error) {
	b := &planBuilder{byKey: make(map[string]*ScanNode)}
	root, err := b.build(expr)
	if err != nil {
		return nil, err
	}
	hintScans(root, opts.LookbackDelta.Milliseconds())
	p := &Plan{root: root, scans: b.scans, query: expr.String()}
	if b.folded > 0 {
		p.passes = append(p.passes, fmt.Sprintf("constfold(%d)", b.folded))
	}
	p.passes = append(p.passes, fmt.Sprintf("selector-dedup(%d scans, %d shared)", len(b.scans), b.shared))
	p.passes = append(p.passes, fmt.Sprintf("pushdown(%d matchers -> 1 SelectBatch)", len(b.scans)))
	p.passes = append(p.passes, "range-hints")
	return p, nil
}

func (b *planBuilder) build(e Expr) (logNode, error) {
	switch n := e.(type) {
	case *NumberLiteral:
		return &lConst{val: n.Val}, nil
	case *StringLiteral:
		return &lString{val: n.Val}, nil
	case *ParenExpr:
		return b.build(n.Expr)
	case *UnaryExpr:
		child, err := b.build(n.Expr)
		if err != nil {
			return nil, err
		}
		if n.Op == OpAdd {
			return child, nil
		}
		if c, ok := child.(*lConst); ok {
			b.folded++
			return &lConst{val: -c.val}, nil
		}
		return &lNeg{child: child}, nil
	case *VectorSelector:
		return &lScan{scan: b.scanFor(n), offset: n.Offset}, nil
	case *MatrixSelector:
		return &lMatrix{scan: b.scanFor(n.VectorSelector), offset: n.VectorSelector.Offset, rng: n.Range}, nil
	case *SubqueryExpr:
		child, err := b.build(n.Expr)
		if err != nil {
			return nil, err
		}
		return &lSubquery{ast: n, child: child}, nil
	case *Call:
		args := make([]logNode, len(n.Args))
		for i, a := range n.Args {
			la, err := b.build(a)
			if err != nil {
				return nil, err
			}
			args[i] = la
		}
		c := &lCall{ast: n, args: args, matrixArg: -1}
		// Single paren unwrap on the AST, as the test oracle's
		// unwrapMatrixArg does: a doubly parenthesised range vector is a
		// vector-math argument and errors.
		if !isSpecialCall(n.Func.Name) {
			for i, a := range n.Args {
				if p, ok := a.(*ParenExpr); ok {
					a = p.Expr
				}
				switch a.(type) {
				case *MatrixSelector, *SubqueryExpr:
					c.matrixArg = i
				}
				if c.matrixArg >= 0 {
					break
				}
			}
		}
		return c, nil
	case *AggregateExpr:
		child, err := b.build(n.Expr)
		if err != nil {
			return nil, err
		}
		a := &lAgg{ast: n, child: child}
		if n.Param != nil {
			if _, ok := n.Param.(*StringLiteral); !ok {
				a.param, err = b.build(n.Param)
				if err != nil {
					return nil, err
				}
			}
		}
		return a, nil
	case *BinaryExpr:
		lhs, err := b.build(n.LHS)
		if err != nil {
			return nil, err
		}
		rhs, err := b.build(n.RHS)
		if err != nil {
			return nil, err
		}
		lc, lok := lhs.(*lConst)
		rc, rok := rhs.(*lConst)
		if lok && rok && (!n.Op.isComparison() || n.ReturnBool) && !n.Op.isSetOp() {
			v, keep := binArith(n.Op, lc.val, rc.val, n.ReturnBool)
			if keep {
				b.folded++
				return &lConst{val: v}, nil
			}
		}
		return &lBinary{ast: n, lhs: lhs, rhs: rhs}, nil
	}
	return nil, fmt.Errorf("promql: cannot plan %T", e)
}

// scanFor returns the shared ScanNode for a selector's matchers, creating
// it on first sight. Offsets and windows intentionally do not participate
// in the key: they only move the read window, which the hint pass widens.
func (b *planBuilder) scanFor(vs *VectorSelector) *ScanNode {
	var k strings.Builder
	for _, m := range vs.Matchers {
		k.WriteString(m.Name)
		k.WriteString(m.Type.String())
		k.WriteString(m.Value)
		k.WriteByte(0)
	}
	key := k.String()
	if s, ok := b.byKey[key]; ok {
		b.shared++
		s.Uses++
		return s
	}
	display := *vs
	display.Offset = 0
	s := &ScanNode{ID: len(b.scans), Selector: display.String(), Matchers: vs.Matchers, Uses: 1}
	b.scans = append(b.scans, s)
	b.byKey[key] = s
	return s
}

// hintScans widens every ScanNode's clamp window to cover all sample
// timestamps its use sites can read, for evaluation timestamps anywhere in
// [start, end]. lo/hi track the reachable evaluation-timestamp offsets
// relative to start/end as the walk descends through offsets and
// subqueries.
func hintScans(root logNode, lookbackMs int64) {
	var walk func(n logNode, lo, hi int64)
	walk = func(n logNode, lo, hi int64) {
		switch x := n.(type) {
		case *lScan:
			off := x.offset.Milliseconds()
			x.scan.widen(satSub(satSub(lo, off), lookbackMs), satSub(hi, off))
		case *lMatrix:
			off := x.offset.Milliseconds()
			x.scan.widen(satSub(satSub(lo, off), x.rng.Milliseconds()), satSub(hi, off))
		case *lSubquery:
			// Inner timestamps live in (ts-offset-range, ts-offset].
			off := x.ast.Offset.Milliseconds()
			rng := x.ast.Range.Milliseconds()
			walk(x.child, satSub(satSub(lo, off), rng), satSub(hi, off))
		default:
			for _, k := range n.kids() {
				walk(k, lo, hi)
			}
		}
	}
	walk(root, 0, 0)
}

// selectHints materialises the scans' clamp windows for a concrete
// evaluation range [startMs, endMs].
func (p *Plan) selectHints(startMs, endMs int64) []tsdb.SelectHint {
	hints := make([]tsdb.SelectHint, len(p.scans))
	for i, s := range p.scans {
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

// Tree renders the multi-line explain form: canonical query, pass list,
// then the operator tree.
func (p *Plan) Tree() string {
	var b strings.Builder
	b.WriteString("plan for: ")
	b.WriteString(p.query)
	b.WriteString("\npasses: ")
	b.WriteString(strings.Join(p.passes, ", "))
	b.WriteByte('\n')
	renderTree(&b, p.root, "", "")
	return b.String()
}

func renderTree(b *strings.Builder, n logNode, head, tail string) {
	b.WriteString(head)
	b.WriteString(n.describe())
	b.WriteByte('\n')
	kids := n.kids()
	for i, k := range kids {
		if i == len(kids)-1 {
			renderTree(b, k, tail+"└─ ", tail+"   ")
		} else {
			renderTree(b, k, tail+"├─ ", tail+"│  ")
		}
	}
}

// Compact renders the plan as one line for span attributes.
func (p *Plan) Compact() string {
	var b strings.Builder
	compactNode(&b, p.root)
	b.WriteString(" | ")
	b.WriteString(strings.Join(p.passes, ", "))
	return b.String()
}

func compactNode(b *strings.Builder, n logNode) {
	switch x := n.(type) {
	case *lConst:
		b.WriteString(formatFloat(x.val))
		return
	case *lString:
		fmt.Fprintf(b, "%q", x.val)
		return
	case *lScan:
		fmt.Fprintf(b, "scan#%d", x.scan.ID)
		return
	case *lMatrix:
		fmt.Fprintf(b, "window[%s](scan#%d)", FormatDuration(x.rng), x.scan.ID)
		return
	case *lSubquery:
		fmt.Fprintf(b, "subquery[%s:%s](", FormatDuration(x.ast.Range), FormatDuration(x.ast.Step))
		compactNode(b, x.child)
		b.WriteByte(')')
		return
	case *lCall:
		b.WriteString(x.ast.Func.Name)
		b.WriteByte('(')
		for i, a := range x.args {
			if i > 0 {
				b.WriteString(", ")
			}
			compactNode(b, a)
		}
		b.WriteByte(')')
		return
	case *lAgg:
		b.WriteString(x.ast.Op.String())
		b.WriteByte('(')
		for i, k := range x.kids() {
			if i > 0 {
				b.WriteString(", ")
			}
			compactNode(b, k)
		}
		b.WriteByte(')')
		return
	case *lBinary:
		b.WriteByte('(')
		compactNode(b, x.lhs)
		b.WriteByte(' ')
		b.WriteString(x.ast.Op.String())
		b.WriteByte(' ')
		compactNode(b, x.rhs)
		b.WriteByte(')')
		return
	case *lNeg:
		b.WriteString("-(")
		compactNode(b, x.child)
		b.WriteByte(')')
		return
	}
	b.WriteString(n.describe())
}
