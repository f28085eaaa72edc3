package promql

import "time"

// SubqueryExpr evaluates an inner expression at a fixed resolution over a
// window, producing a range vector: <expr>[<range>:<step>]. It lets range
// functions apply to computed series, e.g.
// max_over_time(sum(smfsm_pdu_sessions_active)[1h:1m]).
type SubqueryExpr struct {
	Expr   Expr
	Range  time.Duration
	Step   time.Duration
	Offset time.Duration
}

// Type implements Expr.
func (*SubqueryExpr) Type() ValueType { return ValueMatrix }

func (sq *SubqueryExpr) String() string {
	s := maybeParen(sq.Expr) + "[" + FormatDuration(sq.Range) + ":" + FormatDuration(sq.Step) + "]"
	if sq.Offset > 0 {
		s += " offset " + FormatDuration(sq.Offset)
	}
	return s
}
