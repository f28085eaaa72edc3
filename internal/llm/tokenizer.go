// Package llm implements the simulated foundation models that stand in for
// GPT-4, GPT-3.5-turbo and text-curie-001 (§4), plus the prompt assembly
// (the LangChain role) and the per-token cost model (§4.2.5).
//
// A simulated model is a deterministic retrieval-grounded semantic parser.
// It can use only three sources of signal, mirroring what a real model
// conditioned on the same prompt could use:
//
//  1. metric documentation present in its prompt (curated context),
//  2. few-shot examples present in its prompt (query patterns), and
//  3. a compositional name-guessing heuristic plus a per-tier slice of
//     telecom world knowledge (standing in for web-corpus priors).
//
// Accuracy differences between pipelines therefore emerge from what each
// pipeline puts in the prompt — the paper's central claim — rather than
// from hard-coded outcomes. Per-tier capability constants are calibrated
// so absolute execution accuracy lands near the paper's numbers; the
// calibration is documented in EXPERIMENTS.md.
package llm

import (
	"strings"
	"unicode"
)

// CountTokens approximates the number of model tokens in text using the
// standard heuristic for BPE vocabularies: one token per short word, with
// longer words splitting into roughly 4-character pieces, and punctuation
// tokenising separately. Close enough for prompt budgeting and for the
// inference-cost experiment.
func CountTokens(text string) int {
	if text == "" {
		return 0
	}
	tokens := 0
	inWord := 0
	flush := func() {
		if inWord > 0 {
			tokens += 1 + (inWord-1)/4
			inWord = 0
		}
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			inWord++
		case unicode.IsSpace(r):
			flush()
		default:
			flush()
			tokens++ // punctuation
		}
	}
	flush()
	return tokens
}

// TruncateToTokens trims text to at most maxTokens tokens, cutting at a
// word boundary: text within the budget comes back as it is, a longer one
// as its leading words joined by single spaces. A word's tokens do not
// depend on its neighbours, so one running sum finds the cut.
func TruncateToTokens(text string, maxTokens int) string {
	words := strings.Fields(text)
	tokens := 0
	for i, w := range words {
		if tokens += CountTokens(w); tokens > maxTokens {
			return strings.Join(words[:i], " ")
		}
	}
	return text
}
