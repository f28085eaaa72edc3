package core_test

import (
	"context"
	"strings"
	"testing"

	"dio/internal/core"
	"dio/internal/llm"
	"dio/internal/promql"
	"dio/internal/testenv"
	"dio/internal/vecstore"
)

func sharedCopilot(t *testing.T, model string) *core.Copilot {
	t.Helper()
	cat, db, r, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := core.New(core.Config{Catalog: cat, TSDB: db, Model: llm.MustNew(model), Retriever: r})
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestFewShotIntegrity(t *testing.T) {
	ex := core.FewShotExamples()
	if len(ex) != 20 {
		t.Fatalf("have %d few-shot examples, the paper uses 20", len(ex))
	}
	cat, _, _, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ex {
		for _, m := range e.Metrics {
			if _, ok := cat.Lookup(m); !ok {
				t.Fatalf("few-shot example references missing metric %s", m)
			}
		}
	}
	// Every task kind is demonstrated (pattern coverage).
	seen := make(map[llm.TaskKind]bool)
	for _, e := range ex {
		seen[e.Task] = true
		if e.Query != llm.ReferenceQuery(e.Task, e.Metrics) {
			t.Errorf("example %q query is not the canonical pattern", e.Question)
		}
		// The example question's keywords classify to its task, so the
		// demonstration teaches the right pattern.
		if got := llm.ClassifyTask(e.Question); got != e.Task {
			t.Errorf("example %q classifies as %s, labelled %s", e.Question, got, e.Task)
		}
	}
	for _, task := range llm.AllTasks() {
		if !seen[task] {
			t.Errorf("no few-shot example demonstrates %s", task)
		}
	}
}

func TestReservedProceduresNonEmpty(t *testing.T) {
	if len(core.ReservedProcedures()) == 0 || len(core.ReservedGauges()) == 0 {
		t.Fatal("reserved sets empty; benchmark leakage possible")
	}
}

func TestRetrieverFindsRelevantDocFirst(t *testing.T) {
	_, _, r, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	docs := r.Retrieve("How many PDU sessions are currently active?", 29)
	if len(docs) != 29 {
		t.Fatalf("retrieved %d docs, want 29", len(docs))
	}
	found := false
	for _, d := range docs[:10] {
		if d.ID == "smfsm_pdu_sessions_active" {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("smfsm_pdu_sessions_active not in top-10; top IDs: %v", idsOf(docs[:10]))
	}
}

func TestRetrieverAbbreviationQuery(t *testing.T) {
	_, _, r, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	docs := r.Retrieve("LCS NI-LR success rate", 29)
	found := false
	for _, d := range docs {
		if strings.HasPrefix(d.ID, "amfcc_lcs_network_induced_location_request") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("NI-LR abbreviation did not retrieve the full-form family; got %v", idsOf(docs[:8]))
	}
}

func idsOf(docs []llm.ContextDoc) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.ID
	}
	return out
}

func TestAskEndToEnd(t *testing.T) {
	cp := sharedCopilot(t, "gpt-4")
	ans, err := cp.Ask(context.Background(), "How many PDU sessions are currently active?")
	if err != nil {
		t.Fatal(err)
	}
	if ans.ExecErr != nil {
		t.Fatalf("execution failed: %v", ans.ExecErr)
	}
	if ans.Query == "" || ans.Value == nil {
		t.Fatalf("incomplete answer: %+v", ans)
	}
	if len(ans.Metrics) == 0 || !ans.Metrics[0].Known {
		t.Fatalf("metrics not grounded: %+v", ans.Metrics)
	}
	if ans.Dashboard == nil || len(ans.Dashboard.Panels) == 0 {
		t.Error("no dashboard generated")
	}
	if ans.CostCents <= 0 || ans.Usage.PromptTokens == 0 {
		t.Error("cost not accounted")
	}
	if len(ans.Context) != core.DefaultOptions().TopK {
		t.Errorf("context size = %d, want %d", len(ans.Context), core.DefaultOptions().TopK)
	}
}

func TestAskDeterministicAtTemperatureZero(t *testing.T) {
	cp := sharedCopilot(t, "gpt-4")
	q := "What is the initial registration success rate?"
	first, err := cp.Ask(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := cp.Ask(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if again.Query != first.Query || again.ValueText != first.ValueText {
			t.Fatalf("temperature-0 answers differ: %q/%q vs %q/%q",
				again.Query, again.ValueText, first.Query, first.ValueText)
		}
	}
}

func TestAskEmptyQuestion(t *testing.T) {
	cp := sharedCopilot(t, "gpt-4")
	if _, err := cp.Ask(context.Background(), "  "); err == nil {
		t.Fatal("expected error for empty question")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := core.New(core.Config{}); err == nil {
		t.Fatal("expected error for missing dependencies")
	}
}

func TestCurieContextWindowTrimsPrompt(t *testing.T) {
	cp := sharedCopilot(t, "text-curie-001")
	ans, err := cp.Ask(context.Background(), "How many PDU sessions are currently active?")
	if err != nil {
		t.Fatal(err)
	}
	// curie's 2048-token window cannot hold the full 29-doc context plus
	// 20 examples: per-call prompts must respect the budget.
	perCall := ans.Usage.PromptTokens / 2
	if perCall > cp.Model().ContextWindow() {
		t.Errorf("per-call prompt ≈%d tokens exceeds curie's window %d", perCall, cp.Model().ContextWindow())
	}
}

func TestRenderAnswerSections(t *testing.T) {
	cp := sharedCopilot(t, "gpt-4")
	ans, err := cp.Ask(context.Background(), "How many PDU sessions are currently active?")
	if err != nil {
		t.Fatal(err)
	}
	out := core.RenderAnswer(ans)
	for _, want := range []string{"Relevant metrics:", "Query:", "Answer:", "request expert assistance"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered answer missing %q", want)
		}
	}
}

func TestAskWithIVFRetriever(t *testing.T) {
	cat, db, _, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	flat, err := core.NewRetriever(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	ivf := vecstore.NewIVF(flat.EmbeddingModel().Dim(), 32, 8, 5)
	r, err := core.NewRetriever(cat, ivf)
	if err != nil {
		t.Fatal(err)
	}
	if err := ivf.Build(5); err != nil {
		t.Fatal(err)
	}
	cp, err := core.New(core.Config{Catalog: cat, TSDB: db, Model: llm.MustNew("gpt-4"), Retriever: r})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := cp.Ask(context.Background(), "How many PDU sessions are currently active?")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Context) == 0 {
		t.Fatal("IVF retriever returned no context")
	}
}

func TestAnswerForUnknownJargonGuessesUngrounded(t *testing.T) {
	cp := sharedCopilot(t, "gpt-4")
	ans, err := cp.Ask(context.Background(), "What is the current frobnication saturation index?")
	if err != nil {
		t.Fatal(err)
	}
	// The copilot must not silently fabricate a grounded answer: either
	// execution fails or the metric is flagged as absent from the
	// domain-specific database.
	grounded := ans.ExecErr == nil && len(ans.Metrics) > 0 && ans.Metrics[0].Known &&
		ans.Value != nil && len(promql.Numeric(ans.Value)) > 0
	if grounded {
		t.Errorf("nonsense question produced a confidently grounded answer: %+v", ans.Metrics)
	}
}

func TestAnswerAnnotatesBespokeFunction(t *testing.T) {
	cp := sharedCopilot(t, "gpt-4")
	ans, err := cp.Ask(context.Background(), "What is the initial registration success rate?")
	if err != nil {
		t.Fatal(err)
	}
	if ans.ExecErr != nil {
		t.Skipf("this phrasing failed execution (%v); annotation untestable here", ans.ExecErr)
	}
	// The canonical success-rate pattern matches the procedure_success_rate
	// recipe from the domain-specific database.
	if ans.Function != "procedure_success_rate" {
		t.Errorf("function annotation = %q, query = %s", ans.Function, ans.Query)
	}
}
