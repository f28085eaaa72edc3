package llm

import (
	"fmt"
	"strings"
)

// TaskKind classifies the analytics intent of a question. It is shared by
// the benchmark generator (reference queries), the few-shot examples and
// the simulated models' code generation.
type TaskKind int

// Task kinds spanning the paper's benchmark space: "retrieval, averaging,
// sum and rate, and ... up to three metrics in a single expression".
const (
	TaskUnknown TaskKind = iota
	// TaskCurrentTotal: fleet-wide current value of one metric.
	TaskCurrentTotal
	// TaskAverage: per-instance average of one metric.
	TaskAverage
	// TaskRate: per-second rate over 5 minutes of one counter.
	TaskRate
	// TaskIncrease: total increase over 1 hour of one counter.
	TaskIncrease
	// TaskSuccessRate: 100*success/attempt of a procedure (two metrics).
	TaskSuccessRate
	// TaskTimeoutShare: 100*timeout/attempt of a procedure (two metrics).
	TaskTimeoutShare
	// TaskUnhappyRatio: (failure+timeout)/attempt (three metrics).
	TaskUnhappyRatio
	// TaskTopInstance: instance with the highest value of one metric.
	TaskTopInstance
)

// String names the task kind.
func (t TaskKind) String() string {
	switch t {
	case TaskCurrentTotal:
		return "current_total"
	case TaskAverage:
		return "average"
	case TaskRate:
		return "rate"
	case TaskIncrease:
		return "increase"
	case TaskSuccessRate:
		return "success_rate"
	case TaskTimeoutShare:
		return "timeout_share"
	case TaskUnhappyRatio:
		return "unhappy_ratio"
	case TaskTopInstance:
		return "top_instance"
	}
	return "unknown"
}

// AllTasks lists every concrete task kind.
func AllTasks() []TaskKind {
	return []TaskKind{
		TaskCurrentTotal, TaskAverage, TaskRate, TaskIncrease,
		TaskSuccessRate, TaskTimeoutShare, TaskUnhappyRatio, TaskTopInstance,
	}
}

// MetricsNeeded returns how many metrics the task combines.
func (t TaskKind) MetricsNeeded() int {
	switch t {
	case TaskSuccessRate, TaskTimeoutShare:
		return 2
	case TaskUnhappyRatio:
		return 3
	default:
		return 1
	}
}

// ReferenceQuery renders the expert (ground-truth) PromQL for a task over
// the given metrics. The benchmark's reference answers and the few-shot
// examples both use these canonical patterns, so a model that has learned
// the pattern from its prompt reproduces the reference numerically.
func ReferenceQuery(task TaskKind, metrics []string) string {
	switch task {
	case TaskCurrentTotal:
		return fmt.Sprintf("sum(%s)", metrics[0])
	case TaskAverage:
		return fmt.Sprintf("avg(%s)", metrics[0])
	case TaskRate:
		return fmt.Sprintf("sum(rate(%s[5m]))", metrics[0])
	case TaskIncrease:
		return fmt.Sprintf("sum(increase(%s[1h]))", metrics[0])
	case TaskSuccessRate:
		return fmt.Sprintf("100 * sum(%s) / sum(%s)", metrics[0], metrics[1])
	case TaskTimeoutShare:
		return fmt.Sprintf("100 * sum(%s) / sum(%s)", metrics[0], metrics[1])
	case TaskUnhappyRatio:
		return fmt.Sprintf("(sum(%s) + sum(%s)) / sum(%s)", metrics[0], metrics[1], metrics[2])
	case TaskTopInstance:
		return fmt.Sprintf("topk(1, %s)", metrics[0])
	}
	return ""
}

// NaiveQuery renders the query a capable model writes for a task *without*
// having seen the expert pattern: plausible PromQL that is stylistically
// different and usually numerically different from the reference (e.g. a
// windowed-rate success ratio versus the expert's cumulative ratio). This
// is the paper's "numerical accuracy" failure mode for zero-shot prompting.
func NaiveQuery(task TaskKind, metrics []string) string {
	switch task {
	case TaskCurrentTotal:
		return metrics[0] // bare selector: forgets to aggregate across instances
	case TaskAverage:
		return fmt.Sprintf("sum(%s) / count(%s)", metrics[0], metrics[0]) // coincides numerically
	case TaskRate:
		return fmt.Sprintf("sum(rate(%s[1m]))", metrics[0]) // wrong window
	case TaskIncrease:
		return fmt.Sprintf("sum(delta(%s[1h]))", metrics[0]) // delta vs increase
	case TaskSuccessRate:
		return fmt.Sprintf("100 * sum(rate(%s[5m])) / sum(rate(%s[5m]))", metrics[0], metrics[1])
	case TaskTimeoutShare:
		return fmt.Sprintf("sum(%s) / sum(%s)", metrics[0], metrics[1]) // forgets the *100
	case TaskUnhappyRatio:
		return fmt.Sprintf("sum(%s) / sum(%s)", metrics[0], metrics[2]) // drops a term
	case TaskTopInstance:
		return fmt.Sprintf("max(%s)", metrics[0]) // loses the instance label
	}
	return ""
}

// ContextDoc is one retrieved text sample placed in the prompt.
type ContextDoc struct {
	// ID is the metric name (or function:<name>).
	ID string
	// Text is the documentation; empty when the pipeline only supplies
	// bare names (the DIN-SQL and direct-prompting baselines).
	Text string
}

// Example is one few-shot tuple: "user query, corresponding context,
// relevant metrics and the PromQL query" (§4).
type Example struct {
	Question string
	Metrics  []string
	Task     TaskKind
	Query    string
}

// Prompt is the structured prompt handed to a model. Render produces the
// flat text (for token accounting and display); simulated models consume
// the structure directly, which is equivalent to a real model re-parsing
// the rendered text.
type Prompt struct {
	System   string
	Context  []ContextDoc
	Examples []Example
	Question string

	// tokens is the count Builder.Build summed for the prompt it returned,
	// which is final; zero on a hand-built prompt, counted on demand.
	tokens int
}

// Render flattens the prompt to text.
func (p *Prompt) Render() string {
	var b strings.Builder
	if p.System != "" {
		b.WriteString(p.System)
		b.WriteString("\n\n")
	}
	if len(p.Context) > 0 {
		b.WriteString("Relevant metrics and their documentation:\n")
		for _, d := range p.Context {
			b.WriteString("- ")
			b.WriteString(d.ID)
			if d.Text != "" {
				b.WriteString(": ")
				b.WriteString(d.Text)
			}
			b.WriteByte('\n')
		}
		b.WriteByte('\n')
	}
	if len(p.Examples) > 0 {
		b.WriteString("Examples:\n")
		for _, e := range p.Examples {
			fmt.Fprintf(&b, "Q: %s\nMetrics: %s\nPromQL: %s\n\n", e.Question, strings.Join(e.Metrics, ", "), e.Query)
		}
	}
	fmt.Fprintf(&b, "Q: %s\nPromQL:", p.Question)
	return b.String()
}

// Token counts of the text Render puts around the parts of a prompt.
var (
	contextHeadTokens   = CountTokens("Relevant metrics and their documentation:\n")
	examplesHeadTokens  = CountTokens("Examples:\n")
	exampleFrameTokens  = CountTokens("Q: \nMetrics: \nPromQL: \n\n")
	questionFrameTokens = CountTokens("Q: \nPromQL:")
)

// docTokens counts one context line of Render: "- id" or "- id: text".
func docTokens(d ContextDoc) int {
	n := 1 + CountTokens(d.ID)
	if d.Text != "" {
		n += 1 + CountTokens(d.Text)
	}
	return n
}

// exampleTokens counts one example of Render, a comma between metrics.
func exampleTokens(e Example) int {
	n := exampleFrameTokens + CountTokens(e.Question) + CountTokens(e.Query) + max(len(e.Metrics)-1, 0)
	for _, name := range e.Metrics {
		n += CountTokens(name)
	}
	return n
}

// count returns the token count of the rendered prompt as the sum over
// its parts. That equals CountTokens(p.Render()) because Render puts
// white space or punctuation at every seam ("- ", ": ", "\n", "Q: "), and
// a token never spans either. m, which may be nil, remembers the parts it
// has counted before.
func (p *Prompt) count(m *Model) int {
	n := CountTokens(p.System) + questionFrameTokens + CountTokens(p.Question)
	if len(p.Context) > 0 {
		n += contextHeadTokens
	}
	for _, d := range p.Context {
		n += m.docTokens(d)
	}
	if len(p.Examples) > 0 {
		n += examplesHeadTokens
	}
	for _, e := range p.Examples {
		n += m.exampleTokens(e)
	}
	return n
}

// Tokens returns the token count of the rendered prompt.
func (p *Prompt) Tokens() int {
	if p.tokens > 0 {
		return p.tokens
	}
	return p.count(nil)
}

// Builder assembles prompts under a token budget, dropping the
// lowest-ranked context documents first when the budget would overflow
// (the paper's prompt-size constraint, §3.1).
type Builder struct {
	System      string
	TokenBudget int
	// Model, when set, remembers the token count of every document and
	// example it has been prompted with, so Build counts only what is new;
	// the counts are the same without it.
	Model *Model
}

// Build assembles a prompt from ranked context (best first), examples and
// the question, trimming context to fit the budget.
func (b *Builder) Build(context []ContextDoc, examples []Example, question string) *Prompt {
	p := &Prompt{System: b.System, Context: context, Examples: examples, Question: question}
	p.tokens = p.count(b.Model)
	if b.TokenBudget <= 0 {
		return p
	}
	for n := len(p.Context); n > 0 && p.tokens > b.TokenBudget; n-- {
		p.tokens -= b.Model.docTokens(p.Context[n-1])
		if n == 1 {
			p.tokens -= contextHeadTokens
		}
		p.Context = p.Context[:n-1]
	}
	for n := len(p.Examples); n > 0 && p.tokens > b.TokenBudget; n-- {
		p.tokens -= b.Model.exampleTokens(p.Examples[n-1])
		if n == 1 {
			p.tokens -= examplesHeadTokens
		}
		p.Examples = p.Examples[:n-1]
	}
	return p
}
