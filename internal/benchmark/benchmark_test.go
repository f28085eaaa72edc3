package benchmark_test

import (
	"context"
	"strings"
	"testing"

	"dio/internal/baselines"
	"dio/internal/benchmark"
	"dio/internal/core"
	"dio/internal/llm"
	"dio/internal/promql"
	"dio/internal/testenv"
	"dio/internal/tsdb"
)

func items(t *testing.T) []benchmark.Item {
	t.Helper()
	cat, _, _, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	its, err := benchmark.Generate(cat, benchmark.DefaultSize, 7)
	if err != nil {
		t.Fatal(err)
	}
	return its
}

func TestGenerateSizeAndComposition(t *testing.T) {
	its := items(t)
	if len(its) != 200 {
		t.Fatalf("dataset has %d questions, the paper uses 200", len(its))
	}
	counts := make(map[llm.TaskKind]int)
	perMetrics := make(map[int]int)
	for _, it := range its {
		counts[it.Task]++
		perMetrics[len(it.Metrics)]++
	}
	// Every task present; expressions span 1..3 metrics (§4.1: "contain
	// up-to three metrics in a single expression").
	for _, task := range llm.AllTasks() {
		if counts[task] == 0 {
			t.Errorf("no questions for task %s", task)
		}
	}
	for _, n := range []int{1, 2, 3} {
		if perMetrics[n] == 0 {
			t.Errorf("no expressions with %d metrics", n)
		}
	}
	if perMetrics[4] != 0 {
		t.Error("expressions with more than 3 metrics present")
	}
}

func TestGenerateDeterministicAndSeeded(t *testing.T) {
	cat, _, _, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := benchmark.Generate(cat, 50, 7)
	b, _ := benchmark.Generate(cat, 50, 7)
	for i := range a {
		if a[i].Question != b[i].Question || a[i].Reference != b[i].Reference {
			t.Fatalf("generation not deterministic at item %d", i)
		}
	}
	c, _ := benchmark.Generate(cat, 50, 8)
	same := 0
	for i := range a {
		if a[i].Question == c[i].Question {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical datasets")
	}
}

func TestNoTrainingLeakage(t *testing.T) {
	its := items(t)
	fewshotQ := make(map[string]bool)
	fewshotMetrics := make(map[string]bool)
	for _, e := range core.FewShotExamples() {
		fewshotQ[e.Question] = true
		for _, m := range e.Metrics {
			fewshotMetrics[m] = true
		}
	}
	for _, it := range its {
		if fewshotQ[it.Question] {
			t.Errorf("benchmark question %q is a training question", it.Question)
		}
		for _, m := range it.Metrics {
			if fewshotMetrics[m] {
				t.Errorf("benchmark item %d reuses few-shot metric %s", it.ID, m)
			}
		}
	}
}

func TestReferencesExecuteNonEmpty(t *testing.T) {
	cat, db, _, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	its, err := benchmark.Generate(cat, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := benchmark.NewEvaluator(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range its {
		if _, err := promql.Parse(it.Reference); err != nil {
			t.Fatalf("reference for item %d does not parse: %q: %v", it.ID, it.Reference, err)
		}
		if _, err := eval.Reference(context.Background(), it); err != nil {
			t.Fatalf("reference execution failed: %v", err)
		}
	}
}

func TestQuestionsClassifyToTheirTask(t *testing.T) {
	its := items(t)
	for _, it := range its {
		if got := llm.ClassifyTask(it.Question); got != it.Task {
			t.Errorf("item %d %q classifies as %s, labelled %s", it.ID, it.Question, got, it.Task)
		}
	}
}

// perfectSystem replays the reference queries: EX must be 100%.
type perfectSystem struct{ byQ map[string]string }

func (p *perfectSystem) Name() string { return "perfect" }
func (p *perfectSystem) GenerateQuery(_ context.Context, q string) (baselines.QueryResult, error) {
	return baselines.QueryResult{Query: p.byQ[q]}, nil
}

// brokenSystem always emits an unrelated query: EX must be 0%.
type brokenSystem struct{}

func (brokenSystem) Name() string { return "broken" }
func (brokenSystem) GenerateQuery(context.Context, string) (baselines.QueryResult, error) {
	return baselines.QueryResult{Query: "sum(nonexistent_metric_zzz)"}, nil
}

func TestEvaluatorBounds(t *testing.T) {
	cat, db, _, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	its, err := benchmark.Generate(cat, 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := benchmark.NewEvaluator(db)
	if err != nil {
		t.Fatal(err)
	}
	perfect := &perfectSystem{byQ: make(map[string]string)}
	for _, it := range its {
		perfect.byQ[it.Question] = it.Reference
	}
	r, err := eval.Evaluate(context.Background(), perfect, its)
	if err != nil {
		t.Fatal(err)
	}
	if r.EX() != 100 {
		t.Fatalf("perfect system EX = %g, want 100", r.EX())
	}
	rb, err := eval.Evaluate(context.Background(), brokenSystem{}, its)
	if err != nil {
		t.Fatal(err)
	}
	if rb.EX() != 0 {
		t.Fatalf("broken system EX = %g, want 0", rb.EX())
	}
}

// TestEvaluatorAcrossItemSets scores two generated sets with one
// evaluator. Their IDs repeat with different references, and a reference
// cached for one set must not score the other.
func TestEvaluatorAcrossItemSets(t *testing.T) {
	cat, db, _, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	eval, err := benchmark.NewEvaluator(db)
	if err != nil {
		t.Fatal(err)
	}
	var prev []benchmark.Item
	for _, seed := range []int64{7, 2} {
		its, err := benchmark.Generate(cat, 40, seed)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && prev[0].ID == its[0].ID && prev[0].Reference == its[0].Reference {
			t.Fatalf("seeds 7 and 2 share item 1's reference %q; the check needs sets that differ", its[0].Reference)
		}
		prev = its
		perfect := &perfectSystem{byQ: make(map[string]string)}
		for _, it := range its {
			perfect.byQ[it.Question] = it.Reference
		}
		r, err := eval.Evaluate(context.Background(), perfect, its)
		if err != nil {
			t.Fatal(err)
		}
		if r.EX() != 100 {
			t.Errorf("seed %d: perfect system EX = %g through a reused evaluator, want 100", seed, r.EX())
		}
	}
}

func TestEvaluatorEmptyDB(t *testing.T) {
	if _, err := benchmark.NewEvaluator(tsdb.New()); err == nil {
		t.Fatal("expected error for empty database")
	}
}

func TestSummary(t *testing.T) {
	its := items(t)
	s := benchmark.Summary(its)
	for _, want := range []string{"200 questions", "success_rate", "metrics-per-expression"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q: %s", want, s)
		}
	}
}
