package benchmark

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"dio/internal/baselines"
	"dio/internal/llm"
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
	// refs caches reference results keyed by item ID.
	refs map[int]promql.NumericResult
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
		refs: make(map[int]promql.NumericResult),
	}, nil
}

// Reference executes an item's reference query (cached).
func (e *Evaluator) Reference(ctx context.Context, it Item) (promql.NumericResult, error) {
	if r, ok := e.refs[it.ID]; ok {
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
	e.refs[it.ID] = r
	return r, nil
}

// ItemResult records one question's outcome.
type ItemResult struct {
	Item      Item
	Query     string
	Correct   bool
	Err       string
	CostCents float64
	Usage     llm.Usage
}

// Result aggregates one system's run.
type Result struct {
	System        string
	Total         int
	Correct       int
	PerTask       map[llm.TaskKind][2]int // task → {correct, total}
	MeanCostCents float64
	MeanUsage     llm.Usage
	Items         []ItemResult
}

// EX returns the execution accuracy in percent.
func (r *Result) EX() float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(r.Correct) / float64(r.Total)
}

// Evaluate runs the system over every item.
func (e *Evaluator) Evaluate(ctx context.Context, sys baselines.QuerySystem, items []Item) (*Result, error) {
	res := &Result{System: sys.Name(), PerTask: make(map[llm.TaskKind][2]int)}
	var totalCost float64
	var totalUsage llm.Usage
	for _, it := range items {
		ref, err := e.Reference(ctx, it)
		if err != nil {
			return nil, err
		}
		ir := ItemResult{Item: it}
		qr, err := sys.GenerateQuery(ctx, it.Question)
		if err != nil {
			ir.Err = err.Error()
		} else {
			ir.Query = qr.Query
			ir.CostCents = qr.CostCents
			ir.Usage = qr.Usage
			totalCost += qr.CostCents
			totalUsage.PromptTokens += qr.Usage.PromptTokens
			totalUsage.CompletionTokens += qr.Usage.CompletionTokens
			if qr.Query != "" {
				v, execErr := e.exec.Execute(ctx, qr.Query, e.at)
				if execErr != nil {
					ir.Err = execErr.Error()
				} else {
					got := promql.Numeric(v)
					ir.Correct = len(got) > 0 && promql.EqualResults(got, ref, e.tol)
				}
			}
		}
		res.Total++
		pt := res.PerTask[it.Task]
		pt[1]++
		if ir.Correct {
			res.Correct++
			pt[0]++
		}
		res.PerTask[it.Task] = pt
		res.Items = append(res.Items, ir)
	}
	if res.Total > 0 {
		res.MeanCostCents = totalCost / float64(res.Total)
		res.MeanUsage = llm.Usage{
			PromptTokens:     totalUsage.PromptTokens / res.Total,
			CompletionTokens: totalUsage.CompletionTokens / res.Total,
		}
	}
	return res, nil
}

// Table renders results in the paper's two-column table style.
func Table(title, valueHeader string, rows [][2]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	w := len("Approach")
	for _, r := range rows {
		if len(r[0]) > w {
			w = len(r[0])
		}
	}
	fmt.Fprintf(&b, "  %-*s  %s\n", w, "Approach", valueHeader)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-*s  %s\n", w, r[0], r[1])
	}
	return b.String()
}

// FormatResult renders one result with its per-task and per-complexity
// breakdowns (complexity = metrics combined per expression, the paper's
// "up to three metrics" axis).
func FormatResult(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: EX = %.0f%% (%d/%d), mean cost %.2f ¢/query\n",
		r.System, r.EX(), r.Correct, r.Total, r.MeanCostCents)
	tasks := make([]llm.TaskKind, 0, len(r.PerTask))
	for t := range r.PerTask {
		tasks = append(tasks, t)
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i] < tasks[j] })
	for _, t := range tasks {
		pt := r.PerTask[t]
		fmt.Fprintf(&b, "  %-14s %d/%d\n", t.String(), pt[0], pt[1])
	}
	byArity := map[int][2]int{}
	for _, ir := range r.Items {
		c := byArity[len(ir.Item.Metrics)]
		c[1]++
		if ir.Correct {
			c[0]++
		}
		byArity[len(ir.Item.Metrics)] = c
	}
	for n := 1; n <= 3; n++ {
		if c := byArity[n]; c[1] > 0 {
			fmt.Fprintf(&b, "  %d-metric       %d/%d\n", n, c[0], c[1])
		}
	}
	return b.String()
}
