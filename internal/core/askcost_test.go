package core_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"dio/internal/benchmark"
	"dio/internal/catalog"
	"dio/internal/core"
	"dio/internal/embedding"
	"dio/internal/llm"
	"dio/internal/testenv"
)

// An ask takes its clipped documents, their token sets and every token
// count from what was derived when a document was indexed or first
// prompted with. The tests here hold the answers to what a pipeline that
// derives everything from the text, per ask, gives.

// replayAsk rebuilds the two prompts of an answer the way bench/lab.go
// does: documents clipped by hand, a builder and a model that remember
// nothing. Every prompt must count what its rendered text counts, and the
// replay must arrive at the answer's query, tokens and cost. It reports
// whether the budget made the builder drop a document or an example.
func replayAsk(t *testing.T, r *core.Retriever, tier string, a *core.Answer) (trimmed bool) {
	t.Helper()
	opts := core.DefaultOptions()
	model := llm.MustNew(tier)
	builder := &llm.Builder{System: core.AskSystemPrompt, TokenBudget: model.ContextWindow() - opts.MaxOutputTokens}
	check := func(p *llm.Prompt) {
		t.Helper()
		if got, want := p.Tokens(), llm.CountTokens(p.Render()); got != want {
			t.Fatalf("%s, %q: Tokens() = %d, the rendered prompt counts %d", tier, a.Question, got, want)
		}
	}

	var clipped []llm.ContextDoc
	for _, s := range r.RetrieveScored(a.Question, opts.TopK) {
		clipped = append(clipped, llm.ContextDoc{ID: s.Doc.ID, Text: llm.TruncateToTokens(s.Doc.Text, 24)})
	}
	selPrompt := builder.Build(clipped, nil, a.Question)
	check(selPrompt)
	sel, err := model.Complete(llm.Request{Kind: llm.KindSelectMetrics, Prompt: selPrompt})
	if err != nil {
		t.Fatal(err)
	}
	var selDocs []llm.ContextDoc
	for _, name := range sel.Metrics {
		if d, ok := r.Doc(name); ok {
			selDocs = append(selDocs, llm.ContextDoc{ID: d.ID, Text: llm.TruncateToTokens(d.Text, 24)})
		} else {
			selDocs = append(selDocs, llm.ContextDoc{ID: name})
		}
	}
	genPrompt := builder.Build(selDocs, core.FewShotExamples(), a.Question)
	check(genPrompt)
	gen, err := model.Complete(llm.Request{Kind: llm.KindGenerateQuery, Prompt: genPrompt, Metrics: sel.Metrics, Task: sel.Task})
	if err != nil {
		t.Fatal(err)
	}
	usage := llm.Usage{
		PromptTokens:     sel.Usage.PromptTokens + gen.Usage.PromptTokens,
		CompletionTokens: sel.Usage.CompletionTokens + gen.Usage.CompletionTokens,
	}
	if gen.Query != a.Query || usage != a.Usage || sel.CostCents+gen.CostCents != a.CostCents {
		t.Fatalf("%s, %q: the ask gave %q, %+v, %v cents; rebuilt from the text it is %q, %+v, %v cents",
			tier, a.Question, a.Query, a.Usage, a.CostCents, gen.Query, usage, sel.CostCents+gen.CostCents)
	}
	return len(selPrompt.Context) < len(clipped) || len(genPrompt.Examples) < len(core.FewShotExamples())
}

func TestAskMatchesPromptsRebuiltFromText(t *testing.T) {
	cat, _, r, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	items, err := benchmark.Generate(cat, benchmark.DefaultSize, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range llm.ModelNames() {
		cp := sharedCopilot(t, tier)
		trimmed := 0
		for _, it := range items {
			a, err := cp.Ask(context.Background(), it.Question)
			if err != nil {
				t.Fatal(err)
			}
			if replayAsk(t, r, tier, a) {
				trimmed++
			}
		}
		// curie's window forces the builder to drop parts on every ask; the
		// other tiers keep everything.
		want := 0
		if tier == "text-curie-001" {
			want = len(items)
		}
		if trimmed != want {
			t.Errorf("%s: %d of %d asks had a trimmed prompt, want %d", tier, trimmed, len(items), want)
		}
	}
}

// coldQuestions returns the first n distinct questions generated at seed
// 1, the set the ask_cold workload cycles through.
func coldQuestions(t *testing.T, cat *catalog.Database, n int) []string {
	t.Helper()
	items, err := benchmark.Generate(cat, 4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	var out []string
	for _, it := range items {
		if !seen[it.Question] && len(out) < n {
			seen[it.Question] = true
			out = append(out, it.Question)
		}
	}
	return out
}

// TestConcurrentAsksMatchSerial is for the race detector and for what it
// cannot see: eight goroutines fill one copilot's remembered documents in
// whatever order they interleave, and every answer must still be the one a
// fresh copilot gives when asked alone.
func TestConcurrentAsksMatchSerial(t *testing.T) {
	cat, _, _, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	n := 256
	if raceEnabled || testing.Short() {
		n = 48
	}
	questions := coldQuestions(t, cat, n)
	type outcome struct {
		query string
		usage llm.Usage
		cents float64
	}
	ask := func(cp *core.Copilot, q string) outcome {
		a, err := cp.Ask(context.Background(), q)
		if err != nil {
			t.Error(err)
			return outcome{}
		}
		return outcome{a.Query, a.Usage, a.CostCents}
	}
	serial := sharedCopilot(t, "gpt-4")
	want := make([]outcome, len(questions))
	for i, q := range questions {
		want[i] = ask(serial, q)
	}
	shared := sharedCopilot(t, "gpt-4")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range questions {
				i = (i + g*len(questions)/8) % len(questions)
				if got := ask(shared, questions[i]); got != want[i] {
					t.Errorf("goroutine %d, %q: got %+v, asked alone %+v", g, questions[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTenantRecontributionIsReindexed contributes one id twice on behalf
// of a tenant. The second text must be found by its own words, at the
// score its own embedding gives, and be what a prompt carries.
func TestTenantRecontributionIsReindexed(t *testing.T) {
	r, err := core.NewRetriever(catalog.Generate(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const (
		id     = "acme_widget_depth"
		first  = id + ": The zanzibar gateway overload factor of the acme widget."
		second = id + ": The quokka lattice resonance depth of the acme widget, sampled every scrape and reported per slice."
		query  = "quokka lattice resonance depth"
	)
	for _, text := range []string{first, second} {
		if err := r.AddDocumentTenant("acme", catalog.Document{ID: id, Text: text}); err != nil {
			t.Fatal(err)
		}
	}
	hits := r.RetrieveScoredTenant("acme", query, 5)
	if len(hits) == 0 || hits[0].Doc.ID != id {
		t.Fatalf("the second contribution is not the best match for its own words: %v", ids(hits))
	}
	model := r.EmbeddingModel()
	if want := embedding.Dot(model.Embed(query), model.Embed(second)); math.Float64bits(hits[0].Score) != math.Float64bits(want) {
		t.Errorf("score = %v, the second text embeds at %v (the first at %v)",
			hits[0].Score, want, embedding.Dot(model.Embed(query), model.Embed(first)))
	}
	if want := (llm.ContextDoc{ID: id, Text: llm.TruncateToTokens(second, 24)}); hits[0].Doc.Text != second || hits[0].Clipped != want {
		t.Errorf("retrieved %+v clipped to %+v, want the second text clipped to %+v", hits[0].Doc, hits[0].Clipped, want)
	}
}
