package llm

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"dio/internal/catalog"
	"dio/internal/textutil"
)

// This file keeps the definitions three rewrites must reproduce, as they
// stood before: truncation by recounting the prefix, the budget loop that
// re-rendered the prompt per drop, and document scoring from the text.

// truncateByRecount is TruncateToTokens as first written.
func truncateByRecount(text string, maxTokens int) string {
	if CountTokens(text) <= maxTokens {
		return text
	}
	words := strings.Fields(text)
	var b strings.Builder
	for _, w := range words {
		if CountTokens(b.String()+" "+w) > maxTokens {
			break
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(w)
	}
	return b.String()
}

// buildByRender is Builder.Build as first written: the rendered prompt is
// counted again after every drop.
func buildByRender(b *Builder, context []ContextDoc, examples []Example, question string) *Prompt {
	p := &Prompt{System: b.System, Context: context, Examples: examples, Question: question}
	if b.TokenBudget <= 0 {
		return p
	}
	for len(p.Context) > 0 && CountTokens(p.Render()) > b.TokenBudget {
		p.Context = p.Context[:len(p.Context)-1]
	}
	for len(p.Examples) > 0 && CountTokens(p.Render()) > b.TokenBudget {
		p.Examples = p.Examples[:len(p.Examples)-1]
	}
	return p
}

// similarities is the two textutil measures as they were before they took
// sets: each argument deduplicated through a map.
func similarities(a, b []string) (overlap, jaccard float64) {
	setA, setB := make(map[string]bool), make(map[string]bool)
	for _, t := range a {
		setA[t] = true
	}
	for _, t := range b {
		setB[t] = true
	}
	inter := 0
	for t := range setA {
		if setB[t] {
			inter++
		}
	}
	if len(setA) > 0 && len(setB) > 0 {
		overlap = float64(inter) / float64(min(len(setA), len(setB)))
	}
	if union := len(setA) + len(setB) - inter; union > 0 {
		jaccard = float64(inter) / float64(union)
	}
	return overlap, jaccard
}

// docScoreFromText is docScore as first written, over the question's core
// tokens as strings.
func docScoreFromText(m *Model, question string, doc ContextDoc) float64 {
	var core []string
	for _, t := range textutil.NormalizeTokens(question) {
		if !scaffold[t] {
			core = append(core, t)
		}
	}
	core = m.lex.Expand(core)
	if doc.Text == "" && hashFrac(m.name+"|comprehend|"+doc.ID) >= m.cap.BareNameComprehension {
		return 0
	}
	subject := doc.Text
	if i := strings.IndexByte(subject, '.'); i > 0 {
		subject = subject[:i]
	}
	subjToks := m.lex.Expand(textutil.NormalizeTokens(doc.ID + " " + subject))
	if len(subjToks) == 0 {
		return 0
	}
	allToks := subjToks
	if subject != doc.Text {
		allToks = m.lex.Expand(textutil.NormalizeTokens(doc.ID + " " + doc.Text))
	}
	overlap, _ := similarities(core, allToks)
	_, jaccard := similarities(core, subjToks)
	return overlap + 0.5*jaccard
}

var (
	catalogOnce sync.Once
	catalogDocs []catalog.Document
)

// documents returns the generated catalog's documents.
func documents() []catalog.Document {
	catalogOnce.Do(func() { catalogDocs = catalog.Generate().Documents() })
	return catalogDocs
}

func TestTruncateToTokensMatchesRecount(t *testing.T) {
	texts := []string{
		"", " ", "word", "  leading and   runs\tof \n\n space  ", "line one\nline two\nline three",
		"... --- !!! ??? ;;;", "a , b ; c : d", "end.", "(nested [brackets {here}])",
		"naïve café résumé 東京都 данные ελληνικά", "x\u00a0y\u2003z", "tab\tseparated\twords\there",
		"counter_name_with_underscores and CamelCaseName 3gpp 5G n1", strings.Repeat("verylongword", 9),
	}
	for _, d := range documents() {
		texts = append(texts, d.Text)
	}
	for _, text := range texts {
		for _, budget := range []int{0, 1, 24, 10000} {
			if got, want := TruncateToTokens(text, budget), truncateByRecount(text, budget); got != want {
				t.Fatalf("TruncateToTokens(%q, %d) = %q, the recounting loop gives %q", text, budget, got, want)
			}
		}
	}
}

// TestDocScoresMatchText scores every catalog document — clipped as a
// prompt carries it, in full and as a bare name — on each tier, and wants
// the bits docScore computed from the text. One model per tier is asked
// everything, so a score that depended on what the model had read before
// would show.
func TestDocScoresMatchText(t *testing.T) {
	questions := []string{
		"", "the of and", "What is the NI-LR success rate at the AMF?",
		"How many PDU sessions are currently active?", "What percentage of N2 handover attempts timed out?",
		"Which instance has the most open connections to the state database at the SMF?",
	}
	// The rest are asked in the words of the documentation itself, every
	// 80th document's opening words.
	for i := 0; i < len(documents()); i += 80 {
		words := strings.Fields(documents()[i].Text)
		questions = append(questions, "What is the rate of "+strings.Join(words[:min(7, len(words))], " ")+" per second?")
	}
	var docs []ContextDoc
	for i, d := range documents() {
		docs = append(docs, ContextDoc{ID: d.ID, Text: TruncateToTokens(d.Text, 24)})
		switch i % 3 {
		case 0:
			docs = append(docs, ContextDoc{ID: d.ID})
		case 1:
			docs = append(docs, ContextDoc{ID: d.ID, Text: d.Text})
		}
	}
	docs = append(docs, ContextDoc{}, ContextDoc{ID: "the"}, ContextDoc{ID: "x", Text: "."}, ContextDoc{Text: "of the"})
	for _, name := range ModelNames() {
		m := MustNew(name)
		for qi, q := range questions {
			// Each question scores a window of the documents, and the windows
			// overlap by half: every document is scored once new and once
			// remembered, in well under a second.
			const step = 120
			lo := qi * step % len(docs)
			window := docs[lo:min(lo+2*step, len(docs))]
			for i, got := range m.docScores(q, window) {
				if want := docScoreFromText(m, q, window[i]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: docScores(%q, %+v) = %v, from the text %v", name, q, window[i], got, want)
				}
			}
		}
	}
}

// checkTokens holds a prompt to the definition of its token count.
func checkTokens(t *testing.T, p *Prompt, what string) {
	t.Helper()
	if got, want := p.Tokens(), CountTokens(p.Render()); got != want {
		t.Fatalf("%s: Tokens() = %d, the rendered prompt counts %d:\n%s", what, got, want, p.Render())
	}
}

// checkBuild builds one prompt three ways — summed per part without and
// with a remembering model, and by the re-rendering loop — and wants the
// same parts kept and the same count each way.
func checkBuild(t *testing.T, m *Model, system string, budget int, context []ContextDoc, examples []Example, question string) {
	t.Helper()
	want := buildByRender(&Builder{System: system, TokenBudget: budget}, context, examples, question)
	for _, b := range []*Builder{
		{System: system, TokenBudget: budget},
		{System: system, TokenBudget: budget, Model: m},
		{System: system, TokenBudget: budget, Model: m}, // every part remembered by now
	} {
		got := b.Build(context, examples, question)
		what := fmt.Sprintf("budget %d, model %v", budget, b.Model != nil)
		if len(got.Context) != len(want.Context) || len(got.Examples) != len(want.Examples) {
			t.Fatalf("%s: kept %d documents and %d examples, the re-rendering loop keeps %d and %d",
				what, len(got.Context), len(got.Examples), len(want.Context), len(want.Examples))
		}
		checkTokens(t, got, what)
	}
	checkTokens(t, want, "hand-built")
}

func TestBuildMatchesRenderLoop(t *testing.T) {
	m := MustNew("gpt-4")
	var context []ContextDoc
	for i, d := range documents()[:40] {
		doc := ContextDoc{ID: d.ID, Text: TruncateToTokens(d.Text, 24)}
		if i%5 == 4 {
			doc.Text = ""
		}
		context = append(context, doc)
	}
	var examples []Example
	for i := 0; i < 12; i++ {
		metrics := []string{"amfcc_attempt", "amfcc_success", "amfcc_timeout"}[:i%4]
		examples = append(examples, Example{
			Question: fmt.Sprintf("What is the rate of procedure %d attempts per second?", i),
			Metrics:  metrics, Query: ReferenceQuery(TaskRate, []string{"amfcc_attempt"}),
		})
	}
	full := (&Builder{System: "sys"}).Build(context, examples, "q?").Tokens()
	for budget := 0; budget <= full+40; budget += 37 {
		checkBuild(t, m, "You are an assistant.", budget, context, examples, "How many sessions are active?")
	}
	checkBuild(t, m, "", 1, nil, nil, "")
	checkBuild(t, m, "", 5, context[:1], examples[:1], "q")
}

// FuzzPromptTokens joins parts that begin and end in letters, digits,
// punctuation, space and nothing: the sum over parts equals the count of
// the rendered text only if no token can span a seam.
func FuzzPromptTokens(f *testing.F) {
	edges := []string{"", "a", "7", "_", ".", ":", "-", " ", "\n", "é", "word", "two words", "x.", ".x", "9:", "-q"}
	for i, a := range edges {
		b, c := edges[(i+5)%len(edges)], edges[(i+11)%len(edges)]
		f.Add(a+"sys"+b, c+"id"+a, b+"text"+c, a+"question"+b, c+"metric"+a, b+"query"+c, 17*i)
	}
	f.Add("", "", "", "", "", "", 0)
	m := MustNew("gpt-3.5-turbo")
	f.Fuzz(func(t *testing.T, system, id, text, question, metric, query string, budget int) {
		context := []ContextDoc{{ID: id, Text: text}, {ID: id}, {ID: text, Text: id}, {Text: text}}
		examples := []Example{
			{Question: question, Metrics: []string{metric, id}, Query: query},
			{Question: text, Query: question},
			{Question: query, Metrics: []string{metric}, Query: query},
		}
		checkTokens(t, &Prompt{System: system, Context: context, Examples: examples, Question: question}, "hand-built")
		checkTokens(t, &Prompt{Question: question}, "question only")
		checkBuild(t, m, system, budget%400, context, examples, question)
	})
}
