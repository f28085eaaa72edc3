// Package textutil provides text normalisation primitives shared by the
// embedding model, the simulated foundation models and the catalog corpus:
// tokenisation, stop-word filtering, a light suffix stemmer and n-gram
// extraction.
//
// All functions are deterministic and allocation-conscious; they sit on the
// hot path of both indexing (thousands of metric descriptions) and query
// embedding (every user question).
package textutil

import (
	"cmp"
	"strings"
	"unicode"
)

// Tokenize splits free text or metric identifiers into lower-case tokens.
// It treats underscores, punctuation and case transitions as boundaries, so
// both natural-language questions ("PDU session establishment") and metric
// names ("amfcc_n1_auth_request" or "SmfPduSessionCreate") decompose into
// comparable token streams.
func Tokenize(s string) []string {
	if s == "" {
		return nil
	}
	tokens := make([]string, 0, 16)
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	prevLower := false
	for _, r := range s {
		switch {
		case unicode.IsLetter(r):
			// camelCase boundary: split on lower→upper transition, so
			// "SmfPduSession" → smf pdu session. Digit/letter mixes stay
			// together ("3gpp", "5g", "ipv4", "n1").
			if unicode.IsUpper(r) && prevLower {
				flush()
			}
			b.WriteRune(unicode.ToLower(r))
			prevLower = unicode.IsLower(r)
		case unicode.IsDigit(r):
			b.WriteRune(r)
			prevLower = false
		default:
			flush()
			prevLower = false
		}
	}
	flush()
	return tokens
}

// stopwords is the set of tokens carrying no domain signal. The list is
// intentionally small: operator questions are short, and over-aggressive
// filtering hurts paraphrase matching.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "of": true, "in": true, "on": true,
	"for": true, "to": true, "by": true, "is": true, "are": true, "was": true,
	"be": true, "and": true, "or": true, "at": true, "as": true, "it": true,
	"that": true, "this": true, "with": true, "what": true, "which": true,
	"how": true, "many": true, "much": true, "me": true, "show": true,
	"give": true, "tell": true, "please": true, "do": true, "does": true,
	"did": true, "has": true, "have": true, "had": true, "from": true,
	"there": true, "were": true, "been": true, "over": true, "per": true,
	"last": true, "currently": true, "current": true, "now": true,
	"right": true, "across": true, "all": true, "each": true,
}

// FilterStopwords returns tokens with stop words removed. The input slice
// is not modified.
func FilterStopwords(tokens []string) []string {
	out := make([]string, 0, len(tokens))
	for _, t := range tokens {
		if !stopwords[t] {
			out = append(out, t)
		}
	}
	return out
}

// Stem applies a light English suffix stemmer sufficient to conflate the
// morphological variants that appear in operator questions and metric
// documentation ("registrations"→"registration", "failed"→"fail",
// "failures"→"failure"→"failur" is avoided by ordering the rules).
// It is intentionally weaker than Porter: identifiers such as "nas", "pdus"
// or "status" must not be mangled beyond recognition.
func Stem(tok string) string {
	n := len(tok)
	switch {
	case n > 5 && strings.HasSuffix(tok, "ations"):
		return tok[:n-1] // registrations → registration
	case n > 4 && strings.HasSuffix(tok, "ings"):
		return tok[:n-1]
	case n > 4 && strings.HasSuffix(tok, "ies"):
		return tok[:n-3] + "y" // retries → retry
	case n > 4 && strings.HasSuffix(tok, "sses"):
		return tok[:n-2] // successes → success
	case n > 4 && strings.HasSuffix(tok, "xes"):
		return tok[:n-2]
	case n > 4 && strings.HasSuffix(tok, "ches"):
		return tok[:n-2]
	case n > 3 && strings.HasSuffix(tok, "ed") && !strings.HasSuffix(tok, "eed"):
		// failed → fail, requested → request; keep "speed".
		return tok[:n-2]
	case n > 4 && strings.HasSuffix(tok, "ing"):
		return tok[:n-3] // establishing → establish
	case n > 3 && strings.HasSuffix(tok, "s") && !strings.HasSuffix(tok, "ss") && !strings.HasSuffix(tok, "us") && !strings.HasSuffix(tok, "is"):
		return tok[:n-1] // sessions → session; keep success, status, analysis
	}
	return tok
}

// StemAll stems every token, returning a new slice.
func StemAll(tokens []string) []string {
	out := make([]string, len(tokens))
	for i, t := range tokens {
		out[i] = Stem(t)
	}
	return out
}

// NormalizeTokens is the canonical pipeline used across the repository:
// tokenize, drop stop words, stem.
func NormalizeTokens(s string) []string {
	return StemAll(FilterStopwords(Tokenize(s)))
}

// CharNGrams returns the set of character n-grams (with boundary padding)
// of a token, used as subword features so that near-miss spellings and
// compound abbreviations still share embedding mass.
func CharNGrams(tok string, n int) []string {
	if n <= 0 || tok == "" {
		return nil
	}
	padded := "^" + tok + "$"
	if len(padded) < n {
		return []string{padded}
	}
	grams := make([]string, 0, len(padded)-n+1)
	for i := 0; i+n <= len(padded); i++ {
		grams = append(grams, padded[i:i+n])
	}
	return grams
}

// WordNGrams returns contiguous word n-grams joined by a space. Bigrams of
// normalised tokens let the embedder distinguish "session establishment"
// from "session release".
func WordNGrams(tokens []string, n int) []string {
	if n <= 0 || len(tokens) < n {
		return nil
	}
	grams := make([]string, 0, len(tokens)-n+1)
	for i := 0; i+n <= len(tokens); i++ {
		grams = append(grams, strings.Join(tokens[i:i+n], " "))
	}
	return grams
}

// common returns |A∩B| of two sets, each a sorted slice without duplicates.
func common[T cmp.Ordered](a, b []T) int {
	n := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch c := cmp.Compare(a[i], b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			n, i, j = n+1, i+1, j+1
		}
	}
	return n
}

// JaccardSimilarity returns |A∩B| / |A∪B| of two sets, each a sorted
// slice without duplicates. It is the cheap lexical-overlap measure the
// simulated models use when scoring candidate metric names.
func JaccardSimilarity[T cmp.Ordered](a, b []T) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := common(a, b)
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// OverlapCoefficient returns |A∩B| / min(|A|,|B|) of two sets, each a
// sorted slice without duplicates. It is more forgiving than Jaccard when
// one side is much longer (a one-line question versus a paragraph of
// documentation).
func OverlapCoefficient[T cmp.Ordered](a, b []T) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	return float64(common(a, b)) / float64(min(len(a), len(b)))
}
