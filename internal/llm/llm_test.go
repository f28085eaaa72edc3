package llm

import (
	"strings"
	"testing"

	"dio/internal/embedding"
	"dio/internal/textutil"
)

func TestCountTokens(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"", 0},
		{"hello", 2}, // 5 letters → 1+(4)/4 = 2
		{"a b", 2},
		{"sum(rate(x[5m]))", 10}, // words + punctuation
	}
	for _, c := range cases {
		if got := CountTokens(c.in); got != c.want {
			t.Errorf("CountTokens(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	// Longer text has more tokens.
	if CountTokens("short") >= CountTokens("a considerably longer piece of text") {
		t.Error("token count not monotone with length")
	}
}

func TestTruncateToTokens(t *testing.T) {
	text := "one two three four five six seven eight nine ten"
	tr := TruncateToTokens(text, 4)
	if CountTokens(tr) > 4 {
		t.Errorf("truncated to %d tokens: %q", CountTokens(tr), tr)
	}
	if !strings.HasPrefix(text, tr) {
		t.Errorf("truncation is not a prefix: %q", tr)
	}
	if TruncateToTokens("short", 100) != "short" {
		t.Error("no-op truncation changed text")
	}
}

func TestClassifyTask(t *testing.T) {
	cases := map[string]TaskKind{
		"What is the initial registration success rate?":                              TaskSuccessRate,
		"What percentage of paging attempts timed out?":                               TaskTimeoutShare,
		"What is the ratio of X procedures that failed or timed out to all attempts?": TaskUnhappyRatio,
		"Which instance has the most registered UEs?":                                 TaskTopInstance,
		"What is the rate of paging attempts per second?":                             TaskRate,
		"How many attempts were there in the last hour?":                              TaskIncrease,
		"What is the average number of sessions per instance?":                        TaskAverage,
		"How many PDU sessions are currently active?":                                 TaskCurrentTotal,
	}
	for q, want := range cases {
		if got := ClassifyTask(q); got != want {
			t.Errorf("ClassifyTask(%q) = %s, want %s", q, got, want)
		}
	}
}

func TestReferenceQueriesParseAndArity(t *testing.T) {
	metrics := []string{"m_success", "m_attempt", "m_timeout"}
	for _, task := range AllTasks() {
		n := task.MetricsNeeded()
		q := ReferenceQuery(task, metrics[:n])
		if q == "" {
			t.Errorf("no reference query for %s", task)
		}
		nq := NaiveQuery(task, metrics[:n])
		if nq == "" {
			t.Errorf("no naive query for %s", task)
		}
	}
}

func TestNaiveDiffersFromReferenceForComplexTasks(t *testing.T) {
	metrics := []string{"a", "b", "c"}
	for _, task := range []TaskKind{TaskRate, TaskIncrease, TaskSuccessRate, TaskTimeoutShare, TaskUnhappyRatio, TaskTopInstance, TaskCurrentTotal} {
		n := task.MetricsNeeded()
		if ReferenceQuery(task, metrics[:n]) == NaiveQuery(task, metrics[:n]) {
			t.Errorf("naive query for %s coincides with reference", task)
		}
	}
}

func TestTiersComplete(t *testing.T) {
	tiers := Tiers()
	for _, name := range ModelNames() {
		c, ok := tiers[name]
		if !ok {
			t.Fatalf("missing tier %s", name)
		}
		if c.ContextWindow <= 0 || c.MaxOutputTokens <= 0 {
			t.Errorf("%s has no window/output limits", name)
		}
		if c.PromptCentsPer1K <= 0 {
			t.Errorf("%s has no pricing", name)
		}
	}
	// Capability ordering: gpt-4 strictly more capable than curie.
	g4, cu := tiers["gpt-4"], tiers["text-curie-001"]
	if g4.Knowledge <= cu.Knowledge || g4.SelectionNoise >= cu.SelectionNoise ||
		g4.PatternFewShot <= cu.PatternFewShot || g4.ContextWindow <= cu.ContextWindow {
		t.Error("tier capabilities not ordered gpt-4 > curie")
	}
}

func TestNewUnknownModel(t *testing.T) {
	if _, err := New("gpt-99"); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestCostModel(t *testing.T) {
	c := Capability{PromptCentsPer1K: 3, CompletionCentsPer1K: 6}
	got := c.CostCents(Usage{PromptTokens: 1000, CompletionTokens: 500})
	if got != 6 {
		t.Errorf("cost = %g, want 6", got)
	}
}

// selectionPrompt builds a prompt with documented context docs.
func selectionPrompt(question string) *Prompt {
	return &Prompt{
		Context: []ContextDoc{
			{ID: "amfcc_n1_auth_success", Text: "The number of authentication procedures completed successfully at AMF. 64-bit counter."},
			{ID: "amfcc_n1_auth_attempt", Text: "The number of authentication procedure attempts at AMF. 64-bit counter."},
			{ID: "amfmm_paging_attempt", Text: "The number of paging procedure attempts at AMF. 64-bit counter."},
			{ID: "upfgtp_n3_dl_bytes", Text: "The number of downlink bytes forwarded on the N3 interface of the UPF."},
		},
		Question: question,
	}
}

func TestSelectMetricsFindsDocumented(t *testing.T) {
	m := MustNew("gpt-4")
	resp, err := m.Complete(Request{Kind: KindSelectMetrics, Prompt: selectionPrompt("What is the NAS authentication success rate?")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Task != TaskSuccessRate {
		t.Fatalf("task = %s", resp.Task)
	}
	if len(resp.Metrics) != 2 || resp.Metrics[0] != "amfcc_n1_auth_success" || resp.Metrics[1] != "amfcc_n1_auth_attempt" {
		t.Fatalf("metrics = %v", resp.Metrics)
	}
}

func TestCompleteDeterministicAtTemperatureZero(t *testing.T) {
	m := MustNew("gpt-4")
	req := Request{Kind: KindGenerateQuery, Prompt: selectionPrompt("What is the NAS authentication success rate?")}
	first, err := m.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := m.Complete(req)
		if err != nil {
			t.Fatal(err)
		}
		if again.Query != first.Query {
			t.Fatalf("temperature-0 completion differs: %q vs %q", again.Query, first.Query)
		}
	}
}

func TestTemperatureIntroducesVariation(t *testing.T) {
	m := MustNew("text-curie-001") // noisy tier: variation shows quickly
	req := Request{Kind: KindGenerateQuery, Temperature: 0.7,
		Prompt: selectionPrompt("What is the NAS authentication success rate?")}
	seen := make(map[string]bool)
	for i := 0; i < 30; i++ {
		resp, err := m.Complete(req)
		if err != nil {
			t.Fatal(err)
		}
		seen[resp.Query+"|"+resp.Task.String()] = true
	}
	if len(seen) < 2 {
		t.Error("temperature > 0 produced identical completions 30 times")
	}
}

func TestBareNameComprehensionGatesScoring(t *testing.T) {
	// With bare names, curie (comprehension 0.10) should fail to ground
	// far more often than gpt-4 across many names.
	names := []string{
		"amfcc_service_request_attempt", "amfmm_paging_attempt",
		"smfsm_pdu_session_establishment_attempt", "nrfnfm_nf_discovery_attempt",
		"upfsess_session_establishment_attempt", "n3iwfike_ike_auth_attempt",
	}
	grounded := func(model string) int {
		m := MustNew(model)
		count := 0
		for _, n := range names {
			p := &Prompt{Context: []ContextDoc{{ID: n}}, Question: "What is the rate of " + strings.ReplaceAll(strings.TrimSuffix(n[strings.Index(n, "_")+1:], "_attempt"), "_", " ") + " attempts per second?"}
			resp, err := m.Complete(Request{Kind: KindSelectMetrics, Prompt: p})
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Metrics) > 0 && resp.Metrics[0] == n {
				count++
			}
		}
		return count
	}
	if g4, cu := grounded("gpt-4"), grounded("text-curie-001"); g4 <= cu {
		t.Errorf("bare-name grounding gpt-4=%d should exceed curie=%d", g4, cu)
	}
}

func TestGuessNamesComposesFromQuestion(t *testing.T) {
	m := MustNew("gpt-4")
	// No useful context: the model must guess compositionally, like the
	// paper's DIN-SQL example.
	p := &Prompt{
		Context:  []ContextDoc{{ID: "amfcc_initial_registration_attempt"}},
		Question: "What is the LCS NI-LR success rate?",
	}
	resp, err := m.Complete(Request{Kind: KindSelectMetrics, Prompt: p})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Metrics) != 2 {
		t.Fatalf("metrics = %v", resp.Metrics)
	}
	if !strings.Contains(resp.Metrics[0], "lcs") || !strings.HasSuffix(resp.Metrics[0], "_success") {
		t.Errorf("guessed name %q does not reflect the question wording", resp.Metrics[0])
	}
	if !strings.HasSuffix(resp.Metrics[1], "_attempt") {
		t.Errorf("second role should be the attempt counter: %v", resp.Metrics)
	}
}

func TestCurieDoesNotGuess(t *testing.T) {
	m := MustNew("text-curie-001")
	p := &Prompt{Question: "What is the LCS NI-LR success rate?"}
	resp, err := m.Complete(Request{Kind: KindSelectMetrics, Prompt: p})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Metrics) != 0 {
		t.Errorf("curie guessed metrics: %v", resp.Metrics)
	}
}

func TestGenerateQueryUsesFewShotPattern(t *testing.T) {
	m := MustNew("gpt-4")
	p := selectionPrompt("What is the NAS authentication success rate?")
	p.Examples = []Example{{
		Question: "What is the X success rate?", Task: TaskSuccessRate,
		Metrics: []string{"x_success", "x_attempt"},
		Query:   ReferenceQuery(TaskSuccessRate, []string{"x_success", "x_attempt"}),
	}}
	resp, err := m.Complete(Request{
		Kind: KindGenerateQuery, Prompt: p,
		Metrics: []string{"amfcc_n1_auth_success", "amfcc_n1_auth_attempt"},
		Task:    TaskSuccessRate,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Query == "" {
		t.Fatal("no query generated")
	}
	if !strings.Contains(resp.Query, "amfcc_n1_auth_success") {
		t.Errorf("query does not reference the supplied metric: %s", resp.Query)
	}
}

func TestAnswerDirectWithoutContext(t *testing.T) {
	m := MustNew("gpt-4")
	resp, err := m.Complete(Request{Kind: KindAnswerDirect, Prompt: &Prompt{Question: "How many PDU sessions are active?"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Text, "vendor") {
		t.Errorf("direct answer should explain the missing vendor context: %q", resp.Text)
	}
	if resp.Usage.PromptTokens == 0 || resp.CostCents <= 0 {
		t.Error("usage not accounted")
	}
}

func TestPromptBudgetTrimsContext(t *testing.T) {
	var docs []ContextDoc
	for i := 0; i < 50; i++ {
		docs = append(docs, ContextDoc{ID: "metric_name_" + strings.Repeat("x", 10), Text: strings.Repeat("long documentation text ", 10)})
	}
	b := &Builder{System: "sys", TokenBudget: 500}
	p := b.Build(docs, nil, "question?")
	if p.Tokens() > 500 {
		t.Fatalf("prompt tokens %d exceed budget", p.Tokens())
	}
	if len(p.Context) == 50 {
		t.Error("context was not trimmed")
	}
	// Zero budget keeps everything.
	p2 := (&Builder{}).Build(docs, nil, "q")
	if len(p2.Context) != 50 {
		t.Error("unbudgeted builder trimmed context")
	}
}

func TestPromptRender(t *testing.T) {
	p := &Prompt{
		System:   "sys",
		Context:  []ContextDoc{{ID: "m1", Text: "doc"}},
		Examples: []Example{{Question: "q1", Metrics: []string{"m"}, Query: "sum(m)"}},
		Question: "the question",
	}
	r := p.Render()
	for _, want := range []string{"sys", "m1: doc", "Q: q1", "PromQL: sum(m)", "Q: the question"} {
		if !strings.Contains(r, want) {
			t.Errorf("rendered prompt missing %q", want)
		}
	}
}

func TestCompleteNilPrompt(t *testing.T) {
	m := MustNew("gpt-4")
	if _, err := m.Complete(Request{Kind: KindSelectMetrics}); err == nil {
		t.Fatal("expected error for nil prompt")
	}
}

func TestMaxOutputTokensClamped(t *testing.T) {
	m := MustNew("gpt-4")
	resp, err := m.Complete(Request{Kind: KindAnswerDirect, Prompt: &Prompt{Question: "anything"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Usage.CompletionTokens > m.cap.MaxOutputTokens {
		t.Errorf("completion tokens %d exceed the cap", resp.Usage.CompletionTokens)
	}
}

// knownPhrases counts the domain phrases lex expands.
func knownPhrases(lex *embedding.Lexicon) int {
	n := 0
	for _, e := range embedding.DomainExpansions() {
		toks := textutil.StemAll(textutil.Tokenize(e[0]))
		if len(lex.Expand(toks)) > len(toks) {
			n++
		}
	}
	return n
}

func TestKnowledgeLexiconFraction(t *testing.T) {
	full := knownPhrases(knowledgeLexicon("m", 1.0))
	if none := knownPhrases(knowledgeLexicon("m", 0.0)); none != 0 {
		t.Errorf("zero-knowledge lexicon knows %d phrases", none)
	}
	if full != len(embedding.DomainExpansions()) {
		t.Errorf("full-knowledge lexicon knows %d of %d phrases", full, len(embedding.DomainExpansions()))
	}
	half := knownPhrases(knowledgeLexicon("m", 0.5))
	if half == 0 || half >= full {
		t.Errorf("half-knowledge lexicon knows %d of %d phrases", half, full)
	}
	// Deterministic per model.
	if knownPhrases(knowledgeLexicon("m", 0.5)) != half {
		t.Error("knowledge lexicon not deterministic")
	}
}

func TestStripVariant(t *testing.T) {
	cases := []struct{ name, stem, variant string }{
		{"amfcc_n1_auth_success", "amfcc_n1_auth", "success"},
		{"amfcc_n1_auth_failure_cause_congestion", "amfcc_n1_auth", "failure_cause_congestion"},
		{"x_duration_seconds_bucket", "x", "duration_seconds_bucket"},
		{"amfcc_registered_ues", "amfcc_registered_ues", ""},
		{"a_reject_cause_unspecified", "a", "reject_cause_unspecified"},
	}
	for _, c := range cases {
		stem, variant := stripVariant(c.name)
		if stem != c.stem || variant != c.variant {
			t.Errorf("stripVariant(%q) = (%q, %q), want (%q, %q)", c.name, stem, variant, c.stem, c.variant)
		}
	}
}
