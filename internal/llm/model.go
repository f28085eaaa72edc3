package llm

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dio/internal/embedding"
	"dio/internal/textutil"
)

// RequestKind selects what the model is asked to do.
type RequestKind int

// Request kinds used by the pipelines.
const (
	// KindSelectMetrics: identify the metrics in the context most
	// relevant to the question (§3.2, second stage).
	KindSelectMetrics RequestKind = iota
	// KindGenerateQuery: produce PromQL answering the question from the
	// given metrics (§3.3).
	KindGenerateQuery
	// KindAnswerDirect: answer the question directly in text, as a plain
	// chat model would (Figure 1a).
	KindAnswerDirect
)

// Request is one model invocation.
type Request struct {
	Kind RequestKind
	// Prompt carries context, examples and the question.
	Prompt *Prompt
	// Metrics pre-supplies selected metrics for KindGenerateQuery (the
	// output of a prior KindSelectMetrics call).
	Metrics []string
	// Task optionally pre-supplies the classified task for
	// KindGenerateQuery; TaskUnknown means the model classifies itself.
	Task TaskKind
	// Decomposed marks DIN-SQL-style decomposed prompting: explicit
	// schema-linking and classification sub-tasks before generation,
	// which halves the model's selection and task-reading noise (the
	// reason DIN-SQL beats naive prompting on text-to-SQL benchmarks).
	Decomposed bool
	// Temperature 0 gives repeatable completions (the paper's setting).
	Temperature float64
}

// Response is the model output.
type Response struct {
	// Text is the rendered completion.
	Text string
	// Metrics are the selected metric names (KindSelectMetrics) or the
	// metrics referenced by the generated query.
	Metrics []string
	// Query is the generated PromQL (KindGenerateQuery).
	Query string
	// Task is the task the model inferred.
	Task TaskKind
	// Usage and CostCents account tokens and price.
	Usage     Usage
	CostCents float64
}

// Model is a simulated foundation model. It is safe for concurrent use.
type Model struct {
	name  string
	cap   Capability
	lex   *embedding.Lexicon
	calls atomic.Int64

	// What the model reads from a context document or a few-shot example
	// depends on nothing but the model and that value, so each is read
	// once and remembered under the value itself (see facts). mu guards
	// the three maps; they grow with the distinct documents and examples
	// the process prompts with, which is what it has indexed.
	mu       sync.RWMutex
	docs     map[ContextDoc]*docFacts
	examples map[string]exampleFacts // by question
	tokenIDs map[string]uint32       // the tokens of docs, numbered from 0
}

// New returns the simulated model with the given published name.
func New(name string) (*Model, error) {
	cap, ok := Tiers()[name]
	if !ok {
		return nil, fmt.Errorf("llm: unknown model %q (have %v)", name, ModelNames())
	}
	return &Model{
		name: name, cap: cap, lex: knowledgeLexicon(name, cap.Knowledge),
		docs:     make(map[ContextDoc]*docFacts),
		examples: make(map[string]exampleFacts),
		tokenIDs: make(map[string]uint32),
	}, nil
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(name string) *Model {
	m, err := New(name)
	if err != nil {
		panic(err)
	}
	return m
}

// Name returns the model identifier.
func (m *Model) Name() string { return m.name }

// Capability returns the tier constants.
func (m *Model) Capability() Capability { return m.cap }

// ContextWindow returns the prompt budget in tokens.
func (m *Model) ContextWindow() int { return m.cap.ContextWindow }

// rng derives the deterministic random stream of one completion. With
// temperature 0 the stream depends only on (model, kind, question), so the
// same request always yields the same answer; a positive temperature mixes
// in a per-call counter, modelling sampling.
func (m *Model) rng(req Request) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%s", m.name, req.Kind, req.Prompt.Question)
	if req.Temperature > 0 {
		fmt.Fprintf(h, "|call=%d", m.calls.Add(1))
	}
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// Complete runs one request.
func (m *Model) Complete(req Request) (Response, error) {
	if req.Prompt == nil {
		return Response{}, fmt.Errorf("llm: nil prompt")
	}
	rng := m.rng(req)
	var resp Response
	switch req.Kind {
	case KindSelectMetrics:
		resp = m.selectMetrics(req, rng)
	case KindGenerateQuery:
		resp = m.generateQuery(req, rng)
	case KindAnswerDirect:
		resp = m.answerDirect(req, rng)
	default:
		return Response{}, fmt.Errorf("llm: unknown request kind %d", req.Kind)
	}
	resp.Usage.PromptTokens = req.Prompt.Tokens()
	if resp.Usage.CompletionTokens == 0 {
		resp.Usage.CompletionTokens = CountTokens(resp.Text) + CountTokens(resp.Query)
	}
	if resp.Usage.CompletionTokens > m.cap.MaxOutputTokens {
		resp.Usage.CompletionTokens = m.cap.MaxOutputTokens
	}
	resp.CostCents = m.cap.CostCents(resp.Usage)
	return resp, nil
}

// --- task classification -------------------------------------------------

// ClassifyTask is the noise-free keyword classifier (exported for the
// benchmark generator's sanity tests).
func ClassifyTask(question string) TaskKind {
	q := strings.ToLower(question)
	switch {
	case strings.Contains(q, "success rate"):
		return TaskSuccessRate
	case strings.Contains(q, "timed out") && (strings.Contains(q, "percent") || strings.Contains(q, "share") || strings.Contains(q, "what fraction")):
		return TaskTimeoutShare
	case strings.Contains(q, "failed or timed out") || strings.Contains(q, "failures and timeouts"):
		return TaskUnhappyRatio
	case strings.Contains(q, "which instance") || strings.Contains(q, "busiest"):
		return TaskTopInstance
	case strings.Contains(q, "per second") || strings.Contains(q, "rate of"):
		return TaskRate
	case strings.Contains(q, "last hour") || strings.Contains(q, "past hour"):
		return TaskIncrease
	case strings.Contains(q, "average"):
		return TaskAverage
	default:
		return TaskCurrentTotal
	}
}

// classify applies the keyword classifier with tier noise.
func (m *Model) classify(question string, rng *rand.Rand, decomposed bool) TaskKind {
	task := ClassifyTask(question)
	noise := m.cap.TaskNoise
	if decomposed {
		noise /= 2
	}
	if rng.Float64() < noise {
		all := AllTasks()
		return all[rng.Intn(len(all))]
	}
	return task
}

// --- metric selection -----------------------------------------------------

// knownVariants are the name suffixes the model recognises as lifecycle
// variants (public telecom naming idiom, not proprietary knowledge).
var knownVariants = []string{
	"request", "attempt", "success", "failure", "timeout", "reject",
	"abort", "retransmission",
}

// questionVariant infers which lifecycle variant a question refers to.
func questionVariant(question string) string {
	q := strings.ToLower(question)
	switch {
	case strings.Contains(q, "attempt"):
		return "attempt"
	case strings.Contains(q, "fail"):
		return "failure"
	case strings.Contains(q, "timed out") || strings.Contains(q, "timeout"):
		return "timeout"
	case strings.Contains(q, "success"):
		return "success"
	case strings.Contains(q, "reject"):
		return "reject"
	case strings.Contains(q, "retransmi"):
		return "retransmission"
	case strings.Contains(q, "request"):
		return "request"
	}
	return ""
}

// rolesFor maps a task (plus question wording) to the variant roles whose
// metrics the query combines, in query-operand order.
func rolesFor(task TaskKind, question string) []string {
	switch task {
	case TaskSuccessRate:
		return []string{"success", "attempt"}
	case TaskTimeoutShare:
		return []string{"timeout", "attempt"}
	case TaskUnhappyRatio:
		return []string{"failure", "timeout", "attempt"}
	default:
		if v := questionVariant(question); v != "" {
			return []string{v}
		}
		return []string{""}
	}
}

// scaffold is the task and lifecycle wording coreTokens drops so only the
// subject phrase scores; the lifecycle variant is resolved separately by
// the role logic, and letting "attempt"/"failure" score here would match
// every procedure family in the store.
var scaffold = map[string]bool{
	"rate": true, "average": true, "total": true, "number": true,
	"percentage": true, "percent": true, "fraction": true, "ratio": true,
	"second": true, "hour": true, "minute": true, "instance": true,
	"time": true, "out": true, "share": true, "highest": true,
	"attempt": true, "failure": true, "fail": true, "success": true,
	"timeout": true, "reject": true, "procedure": true, "completion": true,
	"so": true, "far": true, "busiest": true,
}

// coreTokens extracts the content-bearing tokens of a question, expanded
// through the model's world-knowledge lexicon, as the set docScores
// compares with a document's (see tokenSet).
func (m *Model) coreTokens(question string) []uint32 {
	toks := textutil.NormalizeTokens(question)
	core := toks[:0]
	for _, t := range toks {
		if !scaffold[t] {
			core = append(core, t)
		}
	}
	core = m.lex.Expand(core)
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.tokenSet(core)
}

// tokenSet returns tokens as a set: the sorted ids of the distinct ones.
// Only a document's tokens have ids (learn); a token no document holds
// takes one from the top of the range instead, which matches nothing and
// still counts towards the size of the set. Callers hold mu.
func (m *Model) tokenSet(tokens []string) []uint32 {
	ids := make([]uint32, len(tokens))
	for i, t := range tokens {
		id, ok := m.tokenIDs[t]
		if !ok {
			id = math.MaxUint32 - uint32(slices.Index(tokens, t))
		}
		ids[i] = id
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// learn numbers the tokens it has not seen, from 0 up. Callers hold mu
// for writing.
func (m *Model) learn(tokens []string) {
	for _, t := range tokens {
		if _, ok := m.tokenIDs[t]; !ok {
			m.tokenIDs[t] = uint32(len(m.tokenIDs))
		}
	}
}

// docFacts is what a model reads from one context document.
type docFacts struct {
	// subject and all are the token sets docScores compares with the
	// question's: of the name plus first documentation sentence, and of
	// the name plus the whole text. subject is empty for a document the
	// model makes nothing of.
	subject, all []uint32
	// tokens is the count of the document's line in a rendered prompt.
	tokens int
}

// facts returns what the model reads from doc, reading it on first sight.
func (m *Model) facts(doc ContextDoc) *docFacts {
	m.mu.RLock()
	f := m.docs[doc]
	m.mu.RUnlock()
	if f != nil {
		return f
	}
	f = &docFacts{tokens: docTokens(doc)}
	// A bare identifier (no documentation) is only usable if the model
	// can decode the vendor's naming — which it does for a per-tier
	// fraction of names, deterministically per (model, name).
	var subject, all []string
	if doc.Text != "" || hashFrac(m.name+"|comprehend|"+doc.ID) < m.cap.BareNameComprehension {
		first := doc.Text
		if i := strings.IndexByte(first, '.'); i > 0 {
			first = first[:i]
		}
		subject = m.lex.Expand(textutil.NormalizeTokens(doc.ID + " " + first))
		all = subject
		if first != doc.Text {
			all = m.lex.Expand(textutil.NormalizeTokens(doc.ID + " " + doc.Text))
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if have := m.docs[doc]; have != nil {
		return have
	}
	m.learn(all) // subject's are among them
	f.subject, f.all = m.tokenSet(subject), m.tokenSet(all)
	m.docs[doc] = f
	return f
}

// docTokens returns the count of doc's line in a rendered prompt. A nil
// model counts it from the text, and so does any model for a bare name,
// which is short and need not come from an indexed document.
func (m *Model) docTokens(doc ContextDoc) int {
	if m == nil || doc.Text == "" {
		return docTokens(doc)
	}
	return m.facts(doc).tokens
}

// exampleFacts is the remembered token count of the example that had
// these metrics and this query when it was counted.
type exampleFacts struct {
	metrics []string
	query   string
	tokens  int
}

// exampleTokens returns the count of e's lines in a rendered prompt; a
// nil model counts them from the text.
func (m *Model) exampleTokens(e Example) int {
	if m == nil {
		return exampleTokens(e)
	}
	m.mu.RLock()
	f, ok := m.examples[e.Question]
	m.mu.RUnlock()
	if ok && f.query == e.Query && slices.Equal(f.metrics, e.Metrics) {
		return f.tokens
	}
	f = exampleFacts{slices.Clone(e.Metrics), e.Query, exampleTokens(e)}
	m.mu.Lock()
	m.examples[e.Question] = f
	m.mu.Unlock()
	return f.tokens
}

// docScores measures how well each context document answers for the
// question core. Two components: coverage (how many question tokens the
// document accounts for anywhere) and subject affinity (symmetric
// similarity with the document's subject — its name plus first
// documentation sentence), which is what lets a documented entry about
// "paging failures with cause authentication failure" lose to the
// authentication procedure itself on an authentication question. Both
// sides are expanded through the model's world-knowledge lexicon, so a
// tier that knows an abbreviation can bridge it and a tier that does not
// cannot.
func (m *Model) docScores(question string, docs []ContextDoc) []float64 {
	facts := make([]*docFacts, len(docs))
	for i, d := range docs {
		facts[i] = m.facts(d)
	}
	// The question is read after the documents, whose tokens have their
	// ids by now.
	core := m.coreTokens(question)
	scores := make([]float64, len(docs))
	for i, f := range facts {
		if len(f.subject) > 0 {
			scores[i] = textutil.OverlapCoefficient(core, f.all) + 0.5*textutil.JaccardSimilarity(core, f.subject)
		}
	}
	return scores
}

// camelVariantAbbrevs are the camelCase lifecycle suffixes used by some
// vendors (telecom "peg counter" idiom), mapped to canonical roles.
var camelVariantAbbrevs = map[string]string{
	"Att": "attempt", "Succ": "success", "Fail": "failure",
	"Tmo": "timeout", "Rej": "reject", "Abo": "abort",
	"Rtx": "retransmission", "Req": "request",
}

// stripVariant removes a recognised lifecycle-variant suffix (or cause /
// duration suffix) from a metric name, returning the family stem. Both
// snake_case ("…_attempt") and camelCase vendor idioms ("…Att") are
// recognised — reading either is public telecom naming knowledge, not
// proprietary information.
func stripVariant(name string) (stem, variant string) {
	for _, marker := range []string{"_failure_cause_", "_reject_cause_"} {
		if i := strings.Index(name, marker); i >= 0 {
			return name[:i], name[i+1:]
		}
	}
	if i := strings.Index(name, "_duration_seconds"); i >= 0 {
		return name[:i], name[i+1:]
	}
	for _, v := range knownVariants {
		if strings.HasSuffix(name, "_"+v) {
			return name[:len(name)-len(v)-1], v
		}
	}
	for ab, role := range camelVariantAbbrevs {
		if strings.HasSuffix(name, ab) && len(name) > len(ab) {
			return name[:len(name)-len(ab)], role
		}
	}
	if i := strings.Index(name, "DurationSeconds"); i >= 0 {
		return name[:i], "duration"
	}
	return name, ""
}

// composeRole renders a family stem plus a lifecycle role in the naming
// style of sample (snake_case or camelCase).
func composeRole(stem, role, sample string) string {
	if strings.Contains(sample, "_") {
		return stem + "_" + role
	}
	for ab, r := range camelVariantAbbrevs {
		if r == role {
			return stem + ab
		}
	}
	return stem + strings.ToUpper(role[:1]) + role[1:]
}

// selectMetrics implements KindSelectMetrics: the model picks, from the
// context in its prompt, the metrics that answer the question — or, when
// the context does not resolve it and the tier guesses, composes names
// from the question's own words (the paper's DIN-SQL failure mode).
func (m *Model) selectMetrics(req Request, rng *rand.Rand) Response {
	p := req.Prompt
	task := m.classify(p.Question, rng, req.Decomposed)
	roles := rolesFor(task, p.Question)
	scores := m.docScores(p.Question, p.Context)

	type scored struct {
		doc   ContextDoc
		score float64 // ranking score (may include the lifecycle boost)
		base  float64 // raw grounding score (thresholded)
		rank  int
	}
	// Procedure-lifecycle tasks (success rate, timeout share, ...) make a
	// competent model prefer lifecycle counters over protocol-message or
	// resource metrics with similar names.
	wantLifecycle := false
	for _, r := range roles {
		for _, v := range knownVariants {
			if r == v {
				wantLifecycle = true
			}
		}
	}
	cands := make([]scored, 0, len(p.Context))
	for i, d := range p.Context {
		s := scores[i]
		if s <= 0 {
			continue
		}
		boosted := s
		if wantLifecycle {
			if _, v := stripVariant(d.ID); v != "" {
				boosted += 0.3
			}
		}
		cands = append(cands, scored{doc: d, score: boosted, base: s, rank: i})
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].rank < cands[j].rank
	})

	const threshold = 0.45
	if len(cands) == 0 || cands[0].base < threshold {
		// The context does not resolve the question.
		if !m.cap.GuessesNames {
			return Response{Task: task, Text: "I could not identify metrics for this question from the provided context."}
		}
		metrics := m.guessNames(p, task, roles, rng)
		return Response{Task: task, Metrics: metrics,
			Text: "Guessed metric names from the question wording: " + strings.Join(metrics, ", ")}
	}

	best := cands[0]
	// Selection noise: a semantically close distractor from a *different*
	// metric family wins instead (a same-family sibling would collapse to
	// the same query and would not be a mistake).
	selNoise := m.cap.SelectionNoise
	if req.Decomposed {
		selNoise /= 2
	}
	if rng.Float64() < selNoise {
		bestStem, _ := stripVariant(best.doc.ID)
		for _, c := range cands[1:] {
			if stem, _ := stripVariant(c.doc.ID); stem != bestStem {
				best = c
				break
			}
		}
	}

	// Map the chosen family onto the task's roles.
	stem, variant := stripVariant(best.doc.ID)
	inContext := make(map[string]bool, len(p.Context))
	for _, d := range p.Context {
		inContext[d.ID] = true
	}
	var metrics []string
	for _, role := range roles {
		switch {
		case role == "" || variant == "":
			// Gauge or non-procedure counter: the chosen name itself.
			metrics = append(metrics, best.doc.ID)
		default:
			name := composeRole(stem, role, best.doc.ID)
			// Prefer a context doc with the exact role; fall back to the
			// composed sibling name (models reliably infer _attempt from
			// _success, or Att from Succ).
			if !inContext[name] {
				for _, c := range cands {
					cstem, cvar := stripVariant(c.doc.ID)
					if cstem == stem && cvar == role {
						name = c.doc.ID
						break
					}
				}
			}
			metrics = append(metrics, name)
		}
	}
	return Response{Task: task, Metrics: metrics,
		Text: "Relevant metrics: " + strings.Join(metrics, ", ")}
}

// guessNames composes metric names from question words plus a prefix
// inferred from the names visible in context — exactly how DIN-SQL
// produced "amfcc_lcs_ni_lr_success" in the paper's example.
func (m *Model) guessNames(p *Prompt, task TaskKind, roles []string, rng *rand.Rand) []string {
	// Infer the service prefix from context names sharing tokens with the
	// question; fall back to the most common prefix.
	core := textutil.NormalizeTokens(p.Question)
	coreSet := make(map[string]bool, len(core))
	for _, t := range core {
		coreSet[t] = true
	}
	prefixVotes := make(map[string]int)
	for _, d := range p.Context {
		parts := strings.SplitN(d.ID, "_", 2)
		if len(parts) < 2 {
			continue
		}
		weight := 1
		for _, t := range textutil.NormalizeTokens(d.ID) {
			if coreSet[t] {
				weight += 2
			}
		}
		prefixVotes[parts[0]] += weight
	}
	prefix := "amfcc"
	bestVotes := -1
	prefixes := make([]string, 0, len(prefixVotes))
	for pf := range prefixVotes {
		prefixes = append(prefixes, pf)
	}
	sort.Strings(prefixes)
	for _, pf := range prefixes {
		if prefixVotes[pf] > bestVotes {
			prefix, bestVotes = pf, prefixVotes[pf]
		}
	}

	// Compose the slug from the question's content words. Surface forms
	// are kept as written (a model copies the user's wording into its
	// guess — that is exactly how the paper's DIN-SQL produced
	// "amfcc_lcs_ni_lr_success" from "LCS NI-LR"), so the guess is right
	// only when the vendor happened to name the metric with the same
	// words and morphology.
	drop := map[string]bool{
		"rate": true, "average": true, "number": true, "percentage": true,
		"percent": true, "total": true, "current": true, "success": true,
		"successful": true, "fail": true, "failed": true, "failure": true,
		"failures": true, "timeout": true, "timeouts": true,
		"attempt": true, "attempts": true, "second": true, "hour": true,
		"many": true, "what": true, "how": true, "procedure": true,
		"procedures": true, "instance": true, "instances": true,
		"ratio": true, "timed": true, "completions": true, "arriving": true,
	}
	var slugToks []string
	for _, t := range textutil.FilterStopwords(textutil.Tokenize(p.Question)) {
		if !drop[t] {
			slugToks = append(slugToks, t)
		}
	}
	if len(slugToks) == 0 {
		slugToks = []string{"unknown"}
	}
	slug := strings.Join(slugToks, "_")

	var metrics []string
	for _, role := range roles {
		if role == "" {
			metrics = append(metrics, prefix+"_"+slug)
		} else {
			metrics = append(metrics, prefix+"_"+slug+"_"+role)
		}
	}
	_ = rng
	return metrics
}

// --- code generation -------------------------------------------------------

// generateQuery implements KindGenerateQuery.
func (m *Model) generateQuery(req Request, rng *rand.Rand) Response {
	p := req.Prompt
	task := req.Task
	if task == TaskUnknown {
		task = m.classify(p.Question, rng, req.Decomposed)
	}
	metrics := req.Metrics
	if len(metrics) == 0 {
		sel := m.selectMetrics(req, rng)
		metrics, task = sel.Metrics, sel.Task
		if len(metrics) == 0 {
			return Response{Task: task, Text: sel.Text}
		}
	}
	// Pad or trim the metric list to the task's arity (a model handed the
	// wrong number of operands still writes syntactically plausible code).
	need := task.MetricsNeeded()
	for len(metrics) < need {
		metrics = append(metrics, metrics[len(metrics)-1])
	}
	metrics = metrics[:need]

	// Does the prompt demonstrate this task's pattern?
	demonstrated := false
	for _, e := range p.Examples {
		if e.Task == task {
			demonstrated = true
			break
		}
	}
	var knows bool
	if demonstrated {
		knows = rng.Float64() < m.cap.PatternFewShot
	} else {
		zp := m.cap.PatternZeroShotComplex
		if task == TaskCurrentTotal || task == TaskAverage {
			zp = m.cap.PatternZeroShotSimple
		}
		knows = rng.Float64() < zp
	}
	var query string
	if knows {
		query = ReferenceQuery(task, metrics)
	} else {
		query = NaiveQuery(task, metrics)
	}
	codegenNoise := m.cap.CodegenNoise
	if req.Decomposed {
		// The decomposed pipeline's self-correction stage catches about
		// half of the plain generation mistakes.
		codegenNoise /= 2
	}
	if rng.Float64() < codegenNoise {
		query = corrupt(query, metrics, rng)
	}
	return Response{
		Task: task, Metrics: metrics, Query: query,
		Text: "Query: " + query,
	}
}

// corrupt applies one plausible code-generation mistake.
func corrupt(query string, metrics []string, rng *rand.Rand) string {
	switch rng.Intn(4) {
	case 0: // wrong range window
		if strings.Contains(query, "[5m]") {
			return strings.Replace(query, "[5m]", "[30s]", 1)
		}
		return strings.Replace(query, "sum(", "avg(", 1)
	case 1: // dropped scaling factor
		if strings.HasPrefix(query, "100 * ") {
			return strings.TrimPrefix(query, "100 * ")
		}
		return strings.Replace(query, "sum(", "max(", 1)
	case 2: // swapped operands
		if len(metrics) >= 2 {
			q := strings.Replace(query, metrics[0], "\x00", 1)
			q = strings.Replace(q, metrics[1], metrics[0], 1)
			return strings.Replace(q, "\x00", metrics[1], 1)
		}
		return query + " or vector(0)"
	default: // hallucinated label filter that matches nothing
		if len(metrics) > 0 {
			return strings.Replace(query, metrics[0], metrics[0]+`{instance="primary"}`, 1)
		}
		return query
	}
}

// --- direct answering (Figure 1a) -------------------------------------------

// answerDirect emulates asking a chat model the question with whatever
// context the prompt carries, returning prose instead of code.
func (m *Model) answerDirect(req Request, rng *rand.Rand) Response {
	p := req.Prompt
	bestScore := 0.0
	var best ContextDoc
	for i, s := range m.docScores(p.Question, p.Context) {
		if s > bestScore {
			bestScore, best = s, p.Context[i]
		}
	}
	if bestScore < 0.45 {
		return Response{Text: "I don't have access to your network's live metrics, and the counter " +
			"names in your deployment are vendor-specific. Fields like 'subgraph_counts' or " +
			"'amfcc_...' could mean different things in different systems, so I cannot tell " +
			"you the number you asked for. You could consult your vendor documentation or a " +
			"monitoring dashboard."}
	}
	_ = rng
	return Response{
		Metrics: []string{best.ID},
		Text: fmt.Sprintf("Based on the provided documentation, the metric %s looks relevant: %s "+
			"However, I cannot execute queries against your database, so I cannot give a numeric answer.",
			best.ID, best.Text),
	}
}
