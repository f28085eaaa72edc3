package textutil

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"PDU session establishment", []string{"pdu", "session", "establishment"}},
		{"amfcc_n1_auth_request", []string{"amfcc", "n1", "auth", "request"}},
		{"SmfPduSessionCreate", []string{"smf", "pdu", "session", "create"}},
		{"3GPP TS 24.501", []string{"3gpp", "ts", "24", "501"}},
		{"5G core", []string{"5g", "core"}},
		{"NI-LR", []string{"ni", "lr"}},
		{"what's up?", []string{"what", "s", "up"}},
		{"  spaces   everywhere  ", []string{"spaces", "everywhere"}},
		{"IPv4", []string{"ipv4"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if !equal(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeAlwaysLowercase(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok != strings.ToLower(tok) {
				return false
			}
			if tok == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStem(t *testing.T) {
	cases := map[string]string{
		"registrations": "registration",
		"sessions":      "session",
		"failed":        "fail",
		"establishing":  "establish",
		"retries":       "retry",
		"successes":     "success",
		"success":       "success",
		"status":        "status",
		"nas":           "nas",
		"analysis":      "analysis",
		"attempts":      "attempt",
		"timeouts":      "timeout",
		"speed":         "speed",
		"modifications": "modification",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemNeverGrows(t *testing.T) {
	f := func(s string) bool { return len(Stem(s)) <= len(s) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFilterStopwords(t *testing.T) {
	in := []string{"what", "is", "the", "rate", "of", "paging"}
	got := FilterStopwords(in)
	want := []string{"rate", "paging"}
	if !equal(got, want) {
		t.Errorf("FilterStopwords(%v) = %v, want %v", in, got, want)
	}
}

func TestNormalizeTokens(t *testing.T) {
	got := NormalizeTokens("What is the rate of initial registrations?")
	want := []string{"rate", "initial", "registration"}
	if !equal(got, want) {
		t.Errorf("NormalizeTokens = %v, want %v", got, want)
	}
}

func TestCharNGrams(t *testing.T) {
	got := CharNGrams("abc", 3)
	want := []string{"^ab", "abc", "bc$"}
	if !equal(got, want) {
		t.Errorf("CharNGrams = %v, want %v", got, want)
	}
	if CharNGrams("", 3) != nil {
		t.Error("empty token should have no ngrams")
	}
	if CharNGrams("x", 0) != nil {
		t.Error("n=0 should have no ngrams")
	}
	// Short tokens yield the padded whole.
	if got := CharNGrams("a", 4); len(got) != 1 || got[0] != "^a$" {
		t.Errorf("short-token ngrams = %v", got)
	}
}

func TestWordNGrams(t *testing.T) {
	got := WordNGrams([]string{"a", "b", "c"}, 2)
	want := []string{"a b", "b c"}
	if !equal(got, want) {
		t.Errorf("WordNGrams = %v, want %v", got, want)
	}
	if WordNGrams([]string{"a"}, 2) != nil {
		t.Error("too-short input should yield nil")
	}
}

func TestJaccardSimilarity(t *testing.T) {
	a := []string{"a", "b", "c"}
	b := []string{"b", "c", "d"}
	if got := JaccardSimilarity(a, b); got != 0.5 {
		t.Errorf("jaccard = %g, want 0.5", got)
	}
	if got := JaccardSimilarity(a, a); got != 1 {
		t.Errorf("self jaccard = %g, want 1", got)
	}
	if got := JaccardSimilarity[string](nil, nil); got != 0 {
		t.Errorf("empty jaccard = %g, want 0", got)
	}
}

func TestOverlapCoefficient(t *testing.T) {
	a := []string{"a", "b"}
	b := []string{"a", "b", "c", "d"}
	if got := OverlapCoefficient(a, b); got != 1 {
		t.Errorf("overlap = %g, want 1", got)
	}
	if got := OverlapCoefficient(a, []string{"x"}); got != 0 {
		t.Errorf("disjoint overlap = %g, want 0", got)
	}
	if got := OverlapCoefficient(nil, b); got != 0 {
		t.Errorf("empty overlap = %g, want 0", got)
	}
}

// asSet sorts tokens and drops repeats: the form the similarity measures take.
func asSet(tokens []string) []string {
	slices.Sort(tokens)
	return slices.Compact(tokens)
}

func TestSimilaritySymmetry(t *testing.T) {
	f := func(a, b []string) bool {
		a, b = asSet(a), asSet(b)
		return JaccardSimilarity(a, b) == JaccardSimilarity(b, a) &&
			OverlapCoefficient(a, b) == OverlapCoefficient(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimilarityBounds(t *testing.T) {
	f := func(a, b []string) bool {
		a, b = asSet(a), asSet(b)
		j := JaccardSimilarity(a, b)
		o := OverlapCoefficient(a, b)
		return j >= 0 && j <= 1 && o >= 0 && o <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
