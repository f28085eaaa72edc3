package promql

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"dio/internal/tsdb"
)

// ValueType classifies the result type of an expression.
type ValueType int

// Expression result types.
const (
	_ ValueType = iota // the zero value is no type
	ValueScalar
	ValueVector
	ValueMatrix
	ValueString
)

// String names the value type.
func (v ValueType) String() string {
	switch v {
	case ValueScalar:
		return "scalar"
	case ValueVector:
		return "instant vector"
	case ValueMatrix:
		return "range vector"
	case ValueString:
		return "string"
	}
	return "none"
}

// Expr is a parsed PromQL expression node.
type Expr interface {
	// Type returns the value type the node evaluates to.
	Type() ValueType
	// String renders the node as canonical PromQL that re-parses to an
	// equivalent tree.
	String() string
}

// NumberLiteral is a scalar constant.
type NumberLiteral struct {
	Val float64
}

// Type implements Expr.
func (*NumberLiteral) Type() ValueType { return ValueScalar }

func (n *NumberLiteral) String() string {
	return formatFloat(n.Val)
}

// formatFloat formats a float without unnecessary decoration.
func formatFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}

// StringLiteral is a string constant (only used as a function argument).
type StringLiteral struct {
	Val string
}

// Type implements Expr.
func (*StringLiteral) Type() ValueType { return ValueString }

func (s *StringLiteral) String() string { return fmt.Sprintf("%q", s.Val) }

// VectorSelector selects an instant vector by metric name and matchers.
type VectorSelector struct {
	Name     string
	Matchers []*tsdb.Matcher
	Offset   time.Duration
}

// Type implements Expr.
func (*VectorSelector) Type() ValueType { return ValueVector }

func (vs *VectorSelector) String() string {
	var b strings.Builder
	b.WriteString(vs.Name)
	var ms []string
	for _, m := range vs.Matchers {
		if m.Name == tsdb.MetricNameLabel && m.Type == tsdb.MatchEqual && m.Value == vs.Name {
			continue
		}
		ms = append(ms, m.String())
	}
	if len(ms) > 0 {
		b.WriteByte('{')
		b.WriteString(strings.Join(ms, ","))
		b.WriteByte('}')
	}
	if vs.Offset > 0 {
		b.WriteString(" offset ")
		b.WriteString(FormatDuration(vs.Offset))
	}
	return b.String()
}

// MatrixSelector selects a range vector: a vector selector over a window.
type MatrixSelector struct {
	VectorSelector *VectorSelector
	Range          time.Duration
}

// Type implements Expr.
func (*MatrixSelector) Type() ValueType { return ValueMatrix }

func (ms *MatrixSelector) String() string {
	vs := *ms.VectorSelector
	off := vs.Offset
	vs.Offset = 0
	s := vs.String() + "[" + FormatDuration(ms.Range) + "]"
	if off > 0 {
		s += " offset " + FormatDuration(off)
	}
	return s
}

// Call is a function invocation.
type Call struct {
	Func *Function
	Args []Expr
}

// Type implements Expr.
func (c *Call) Type() ValueType { return c.Func.ReturnType }

func (c *Call) String() string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.String()
	}
	return c.Func.Name + "(" + strings.Join(args, ", ") + ")"
}

// AggOp enumerates aggregation operators.
type AggOp int

// Aggregation operators.
const (
	AggSum AggOp = iota
	AggAvg
	AggMin
	AggMax
	AggCount
	AggStddev
	AggStdvar
	AggTopK
	AggBottomK
	AggQuantile
	AggGroup
	AggCountValues
)

var aggNames = map[AggOp]string{
	AggSum: "sum", AggAvg: "avg", AggMin: "min", AggMax: "max",
	AggCount: "count", AggStddev: "stddev", AggStdvar: "stdvar",
	AggTopK: "topk", AggBottomK: "bottomk", AggQuantile: "quantile",
	AggGroup: "group", AggCountValues: "count_values",
}

// aggOpsByName maps spelling to operator.
var aggOpsByName = func() map[string]AggOp {
	m := make(map[string]AggOp, len(aggNames))
	for op, n := range aggNames {
		m[n] = op
	}
	return m
}()

// String returns the PromQL spelling of the aggregation operator.
func (op AggOp) String() string { return aggNames[op] }

// hasParam reports whether the operator takes a leading parameter.
func (op AggOp) hasParam() bool {
	switch op {
	case AggTopK, AggBottomK, AggQuantile, AggCountValues:
		return true
	}
	return false
}

// AggregateExpr aggregates a vector, optionally grouped by/without labels.
type AggregateExpr struct {
	Op       AggOp
	Expr     Expr
	Param    Expr // for topk/bottomk/quantile/count_values
	Grouping []string
	Without  bool
}

// Type implements Expr.
func (*AggregateExpr) Type() ValueType { return ValueVector }

func (a *AggregateExpr) String() string {
	var b strings.Builder
	b.WriteString(a.Op.String())
	if len(a.Grouping) > 0 || a.Without {
		if a.Without {
			b.WriteString(" without (")
		} else {
			b.WriteString(" by (")
		}
		g := append([]string(nil), a.Grouping...)
		sort.Strings(g)
		b.WriteString(strings.Join(g, ", "))
		b.WriteString(")")
	}
	b.WriteByte('(')
	if a.Param != nil {
		b.WriteString(a.Param.String())
		b.WriteString(", ")
	}
	b.WriteString(a.Expr.String())
	b.WriteByte(')')
	return b.String()
}

// BinOp enumerates binary operators.
type BinOp int

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpPow
	OpEql
	OpNeq
	OpGtr
	OpLss
	OpGte
	OpLte
	OpAnd
	OpOr
	OpUnless
)

var binNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%", OpPow: "^",
	OpEql: "==", OpNeq: "!=", OpGtr: ">", OpLss: "<", OpGte: ">=",
	OpLte: "<=", OpAnd: "and", OpOr: "or", OpUnless: "unless",
}

// String returns the PromQL spelling of the operator.
func (op BinOp) String() string { return binNames[op] }

// isComparison reports whether op is a comparison operator.
func (op BinOp) isComparison() bool {
	switch op {
	case OpEql, OpNeq, OpGtr, OpLss, OpGte, OpLte:
		return true
	}
	return false
}

// isSetOp reports whether op is a set operator (and/or/unless).
func (op BinOp) isSetOp() bool {
	switch op {
	case OpAnd, OpOr, OpUnless:
		return true
	}
	return false
}

// MatchCardinality describes the join cardinality of a vector/vector
// binary operation.
type MatchCardinality int

// Join cardinalities.
const (
	CardOneToOne  MatchCardinality = iota
	CardManyToOne                  // group_left: many left samples per right sample
	CardOneToMany                  // group_right: many right samples per left sample
)

// VectorMatching describes how vector/vector binary operands pair up.
type VectorMatching struct {
	// On restricts matching to the listed labels; otherwise matching
	// ignores the listed labels (Ignoring).
	On             bool
	MatchingLabels []string
	// Card is the join cardinality (group_left / group_right).
	Card MatchCardinality
	// Include lists labels copied from the "one" side onto results
	// (the group_left(label, ...) form).
	Include []string
}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Op         BinOp
	LHS, RHS   Expr
	ReturnBool bool
	Matching   *VectorMatching
}

// Type implements Expr.
func (b *BinaryExpr) Type() ValueType {
	if b.LHS.Type() == ValueScalar && b.RHS.Type() == ValueScalar {
		return ValueScalar
	}
	return ValueVector
}

func (b *BinaryExpr) String() string {
	var sb strings.Builder
	sb.WriteString(maybeParen(b.LHS))
	sb.WriteByte(' ')
	sb.WriteString(b.Op.String())
	if b.ReturnBool {
		sb.WriteString(" bool")
	}
	// Render the matching clause whenever one was written, even with an
	// empty label list: `on ()` (one global match group) is semantically
	// distinct from no clause at all, and the canonical form is the plan
	// cache key — dropping the clause would alias distinct queries.
	if b.Matching != nil {
		if b.Matching.On {
			sb.WriteString(" on (")
		} else {
			sb.WriteString(" ignoring (")
		}
		sb.WriteString(strings.Join(b.Matching.MatchingLabels, ", "))
		sb.WriteString(")")
		switch b.Matching.Card {
		case CardManyToOne:
			sb.WriteString(" group_left (" + strings.Join(b.Matching.Include, ", ") + ")")
		case CardOneToMany:
			sb.WriteString(" group_right (" + strings.Join(b.Matching.Include, ", ") + ")")
		}
	}
	sb.WriteByte(' ')
	sb.WriteString(maybeParen(b.RHS))
	return sb.String()
}

// maybeParen wraps operand expressions that themselves are binary in
// parentheses so the canonical string re-parses identically.
func maybeParen(e Expr) string {
	switch e.(type) {
	case *BinaryExpr:
		return "(" + e.String() + ")"
	}
	return e.String()
}

// ParenExpr preserves explicit grouping.
type ParenExpr struct {
	Expr Expr
}

// Type implements Expr.
func (p *ParenExpr) Type() ValueType { return p.Expr.Type() }

func (p *ParenExpr) String() string { return "(" + p.Expr.String() + ")" }

// UnaryExpr is unary + or - applied to a scalar or vector.
type UnaryExpr struct {
	Op   BinOp // OpAdd or OpSub
	Expr Expr
}

// Type implements Expr.
func (u *UnaryExpr) Type() ValueType { return u.Expr.Type() }

func (u *UnaryExpr) String() string { return u.Op.String() + maybeParen(u.Expr) }

// Walk calls fn for every node of the tree rooted at e, pre-order.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch n := e.(type) {
	case *MatrixSelector:
		Walk(n.VectorSelector, fn)
	case *SubqueryExpr:
		Walk(n.Expr, fn)
	case *Call:
		for _, a := range n.Args {
			Walk(a, fn)
		}
	case *AggregateExpr:
		if n.Param != nil {
			Walk(n.Param, fn)
		}
		Walk(n.Expr, fn)
	case *BinaryExpr:
		Walk(n.LHS, fn)
		Walk(n.RHS, fn)
	case *ParenExpr:
		Walk(n.Expr, fn)
	case *UnaryExpr:
		Walk(n.Expr, fn)
	}
}

// MetricNames returns the sorted distinct metric names referenced by
// selectors in e.
func MetricNames(e Expr) []string {
	set := make(map[string]bool)
	Walk(e, func(n Expr) {
		if vs, ok := n.(*VectorSelector); ok && vs.Name != "" {
			set[vs.Name] = true
		}
	})
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
