package benchmark

import (
	"context"
	"fmt"
	"time"

	"dio/internal/baselines"
	"dio/internal/promql"
	"dio/internal/sandbox"
	"dio/internal/tsdb"
)

// Evaluator scores query systems on a benchmark dataset by execution
// accuracy: a question counts as correct when the generated query executes
// and its numeric result matches the reference query's result within a
// relative tolerance.
type Evaluator struct {
	exec *sandbox.Executor
	at   time.Time
	tol  float64
	// refs caches reference results keyed by the reference query's text,
	// not by item ID: IDs number the questions of one generated set, so
	// every set reuses them for different references.
	refs map[string]promql.NumericResult
}

// NewEvaluator builds an evaluator over the populated database, evaluating
// all queries at the newest sample timestamp.
func NewEvaluator(db tsdb.Storage) (*Evaluator, error) {
	_, maxT, ok := db.TimeRange()
	if !ok {
		return nil, fmt.Errorf("benchmark: database is empty")
	}
	return &Evaluator{
		exec: sandbox.New(db, sandbox.DefaultLimits()),
		at:   time.UnixMilli(maxT),
		tol:  1e-6,
		refs: make(map[string]promql.NumericResult),
	}, nil
}

// Reference executes an item's reference query (cached).
func (e *Evaluator) Reference(ctx context.Context, it Item) (promql.NumericResult, error) {
	if r, ok := e.refs[it.Reference]; ok {
		return r, nil
	}
	v, err := e.exec.Execute(ctx, it.Reference, e.at)
	if err != nil {
		return nil, fmt.Errorf("benchmark: reference for item %d (%s): %w", it.ID, it.Reference, err)
	}
	r := promql.Numeric(v)
	if len(r) == 0 {
		return nil, fmt.Errorf("benchmark: reference for item %d returned no data: %s", it.ID, it.Reference)
	}
	e.refs[it.Reference] = r
	return r, nil
}

// ItemResult records one question's outcome.
type ItemResult struct {
	Item    Item
	Correct bool
}

// Result aggregates one system's run.
type Result struct {
	System        string
	Total         int
	Correct       int
	MeanCostCents float64
	Items         []ItemResult
}

// EX returns the execution accuracy in percent.
func (r *Result) EX() float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(r.Correct) / float64(r.Total)
}

// Evaluate runs the system over every item. A question the system fails
// on, or whose query does not execute, counts as wrong.
func (e *Evaluator) Evaluate(ctx context.Context, sys baselines.QuerySystem, items []Item) (*Result, error) {
	res := &Result{System: sys.Name()}
	var totalCost float64
	for _, it := range items {
		ref, err := e.Reference(ctx, it)
		if err != nil {
			return nil, err
		}
		ir := ItemResult{Item: it}
		if qr, err := sys.GenerateQuery(ctx, it.Question); err == nil {
			totalCost += qr.CostCents
			if qr.Query != "" {
				if v, err := e.exec.Execute(ctx, qr.Query, e.at); err == nil {
					got := promql.Numeric(v)
					ir.Correct = len(got) > 0 && promql.EqualResults(got, ref, e.tol)
				}
			}
		}
		res.Total++
		if ir.Correct {
			res.Correct++
		}
		res.Items = append(res.Items, ir)
	}
	if res.Total > 0 {
		res.MeanCostCents = totalCost / float64(res.Total)
	}
	return res, nil
}
