package embedding

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

// corpus is a small training fixture resembling catalog documentation.
var corpus = []string{
	"amfcc_n1_auth_request: The number of authentication requests sent by AMF.",
	"amfcc_initial_registration_success: The number of initial registration procedures completed successfully at AMF.",
	"smfsm_pdu_session_establishment_attempt: The number of PDU session establishment procedure attempts at SMF.",
	"upfgtp_n3_dl_bytes: The number of downlink bytes forwarded on the N3 interface.",
	"nrfnfm_nf_heartbeat_attempt: The number of NF heartbeat procedure attempts at NRF.",
	"amfcc_lcs_network_induced_location_request_success: The number of LCS network induced location request procedures completed successfully at AMF.",
}

func trained(t testing.TB) *Model {
	t.Helper()
	return Train(corpus, DomainLexicon(), DefaultOptions())
}

func TestEmbedDeterministic(t *testing.T) {
	m := trained(t)
	a := m.Embed("PDU session establishment")
	b := m.Embed("PDU session establishment")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("embedding is not deterministic")
		}
	}
}

func TestEmbedUnitNorm(t *testing.T) {
	m := trained(t)
	for _, text := range corpus {
		n := Norm(m.Embed(text))
		if math.Abs(n-1) > 1e-5 {
			t.Errorf("norm(%q) = %g, want 1", text[:20], n)
		}
	}
	// Empty text embeds to the zero vector (norm 0).
	if n := Norm(m.Embed("")); n != 0 {
		t.Errorf("norm(empty) = %g, want 0", n)
	}
}

// similarity is the cosine similarity of the embeddings of two texts:
// Embed returns unit vectors, so it is their dot product.
func similarity(m *Model, a, b string) float64 { return Dot(m.Embed(a), m.Embed(b)) }

func TestSemanticProximity(t *testing.T) {
	m := trained(t)
	query := "How many PDU sessions were established?"
	related := similarity(m, query, corpus[2])
	unrelated := similarity(m, query, corpus[3])
	if related <= unrelated {
		t.Errorf("related similarity %g not above unrelated %g", related, unrelated)
	}
}

func TestAbbreviationBridging(t *testing.T) {
	m := trained(t)
	// "NI-LR" should land near the full-form documentation thanks to the
	// domain lexicon.
	withLex := similarity(m, "LCS NI-LR success", corpus[5])
	plain := Train(corpus, nil, DefaultOptions())
	withoutLex := similarity(plain, "LCS NI-LR success", corpus[5])
	if withLex <= withoutLex {
		t.Errorf("lexicon did not improve abbreviation similarity: %g vs %g", withLex, withoutLex)
	}
}

func TestIDFFavoursRareTerms(t *testing.T) {
	m := trained(t)
	// "number" appears in every doc, "heartbeat" in one.
	if m.IDF("heartbeat") <= m.IDF("number") {
		t.Errorf("IDF(heartbeat)=%g should exceed IDF(number)=%g", m.IDF("heartbeat"), m.IDF("number"))
	}
	// Unseen tokens get the default.
	if m.IDF("zzzunseen") != DefaultOptions().DefaultIDF {
		t.Errorf("unseen IDF = %g", m.IDF("zzzunseen"))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := trained(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	m2, err := Load(&buf, DomainLexicon())
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	a, b := m.Embed("registration success"), m2.Embed("registration success")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("loaded model embeds differently")
		}
	}
	if m2.docs != len(corpus) {
		t.Errorf("corpus size = %d, want %d", m2.docs, len(corpus))
	}
}

func TestLoadCorrupt(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("garbage")), nil); err == nil {
		t.Fatal("expected error loading garbage")
	}
}

func TestVectorOps(t *testing.T) {
	a := Vector{3, 4}
	if Norm(a) != 5 {
		t.Errorf("norm = %g, want 5", Norm(a))
	}
	Normalize(a)
	if math.Abs(Norm(a)-1) > 1e-6 {
		t.Errorf("normalized norm = %g", Norm(a))
	}
	zero := Vector{0, 0}
	Normalize(zero) // must not panic or NaN
	if zero[0] != 0 {
		t.Error("zero vector changed by Normalize")
	}
	if Dot(zero, a) != 0 {
		t.Error("similarity with the zero vector should be 0")
	}
}

func TestDotPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dim mismatch")
		}
	}()
	Dot(Vector{1}, Vector{1, 2})
}

// TestCosineProperties: retrieval scores are dot products of normalized
// vectors, i.e. cosines — bounded, symmetric, never NaN.
func TestCosineProperties(t *testing.T) {
	unit := func(v Vector) Vector {
		u := Clone(v)
		Normalize(u)
		return u
	}
	f := func(raw []float32) bool {
		if len(raw) < 2 {
			return true
		}
		half := len(raw) / 2
		a, b := Vector(raw[:half]), Vector(raw[half:half*2])
		for _, x := range raw {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				return true
			}
		}
		a, b = unit(a), unit(b)
		c := Dot(a, b)
		if math.IsNaN(c) {
			return false
		}
		return c >= -1.0001 && c <= 1.0001 && c == Dot(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLexiconExpand(t *testing.T) {
	lex := NewLexicon()
	lex.Add("ni lr", "network induced location request")
	in := []string{"lc", "ni", "lr", "success"}
	out := lex.Expand(in)
	if len(out) <= len(in) {
		t.Fatalf("expansion added nothing: %v", out)
	}
	// Original tokens preserved.
	for i, tok := range in {
		if out[i] != tok {
			t.Errorf("original token %d changed: %v", i, out)
		}
	}
	// Longest-match and idempotence on unrelated tokens.
	if got := lex.Expand([]string{"unrelated"}); len(got) != 1 {
		t.Errorf("unrelated expansion = %v", got)
	}
	if lex.Len() != 1 {
		t.Errorf("lexicon len = %d", lex.Len())
	}
}

func TestDomainLexiconCoversKeyJargon(t *testing.T) {
	lex := DomainLexicon()
	for _, phrase := range []string{"pdu", "ni lr", "amf", "qos", "handover"} {
		if _, ok := lex.expansions[phrase]; !ok {
			t.Errorf("domain lexicon missing %q", phrase)
		}
	}
	if len(DomainExpansions()) < 50 {
		t.Errorf("expected a substantial expansion table, got %d", len(DomainExpansions()))
	}
}

func TestNilLexiconExpandIsIdentity(t *testing.T) {
	var lex *Lexicon
	in := []string{"a", "b"}
	out := lex.Expand(in)
	if len(out) != 2 || out[0] != "a" {
		t.Errorf("nil lexicon expand = %v", out)
	}
}
