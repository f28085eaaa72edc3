package embedding

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"dio/internal/catalog"
	"dio/internal/textutil"
)

// referenceEmbed is Embed written the plain way: normalise through the
// copying textutil helpers, expand with strings.Join keys, name every
// feature as a string and hash it with hash/fnv. The model's Embed and
// Train's vectors must match it bit for bit.
func referenceEmbed(m *Model, text string) Vector {
	v := make(Vector, m.opts.Dim)
	toks := textutil.StemAll(textutil.FilterStopwords(textutil.Tokenize(text)))
	if m.lex != nil {
		toks = referenceExpand(m.lex, toks)
	}
	for _, t := range toks {
		referenceAddFeature(m, v, "u:"+t, m.opts.UnigramWeight*m.IDF(t))
		if m.opts.SubwordWeight > 0 {
			for _, n := range m.opts.SubwordNs {
				for _, g := range charNGrams(t, n) {
					referenceAddFeature(m, v, "c:"+g, m.opts.SubwordWeight)
				}
			}
		}
	}
	if m.opts.BigramWeight > 0 {
		for _, bg := range wordNGrams(toks, 2) {
			referenceAddFeature(m, v, "b:"+bg, m.opts.BigramWeight)
		}
	}
	Normalize(v)
	return v
}

func referenceAddFeature(m *Model, v Vector, name string, w float64) {
	if w == 0 {
		return
	}
	h := fnv.New64a()
	io.WriteString(h, name)
	h1 := h.Sum64()
	io.WriteString(h, "#2")
	h2 := h.Sum64()
	d := uint64(m.opts.Dim)
	sign1 := float64(1)
	if h1&(1<<63) != 0 {
		sign1 = -1
	}
	sign2 := float64(1)
	if h2&(1<<62) != 0 {
		sign2 = -1
	}
	v[h1%d] += float32(sign1 * w)
	v[h2%d] += float32(sign2 * w * 0.5)
}

// referenceExpand is Lexicon.Expand with each candidate key joined afresh.
func referenceExpand(l *Lexicon, tokens []string) []string {
	if len(l.expansions) == 0 || len(tokens) == 0 {
		return tokens
	}
	out := append([]string(nil), tokens...)
	for i := 0; i < len(tokens); i++ {
		for n := min(l.maxKeyLen, len(tokens)-i); n >= 1; n-- {
			if exp, ok := l.expansions[strings.Join(tokens[i:i+n], " ")]; ok {
				out = append(out, exp...)
				i += n - 1
				break
			}
		}
	}
	return out
}

// charNGrams returns the character n-grams of "^"+tok+"$", or the whole
// padded token when it is shorter than n.
func charNGrams(tok string, n int) []string {
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

// wordNGrams returns the contiguous word n-grams of tokens joined by a
// space.
func wordNGrams(tokens []string, n int) []string {
	if n <= 0 || len(tokens) < n {
		return nil
	}
	grams := make([]string, 0, len(tokens)-n+1)
	for i := 0; i+n <= len(tokens); i++ {
		grams = append(grams, strings.Join(tokens[i:i+n], " "))
	}
	return grams
}

func TestCharNGrams(t *testing.T) {
	got := charNGrams("abc", 3)
	if want := []string{"^ab", "abc", "bc$"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("charNGrams = %v, want %v", got, want)
	}
	if charNGrams("", 3) != nil {
		t.Error("empty token should have no ngrams")
	}
	if charNGrams("x", 0) != nil {
		t.Error("n=0 should have no ngrams")
	}
	// Short tokens yield the padded whole.
	if got := charNGrams("a", 4); len(got) != 1 || got[0] != "^a$" {
		t.Errorf("short-token ngrams = %v", got)
	}
}

func TestWordNGrams(t *testing.T) {
	got := wordNGrams([]string{"a", "b", "c"}, 2)
	if want := []string{"a b", "b c"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("wordNGrams = %v, want %v", got, want)
	}
	if wordNGrams([]string{"a"}, 2) != nil {
		t.Error("too-short input should yield nil")
	}
}

// catalogFixture is the text of every document a dio-server indexes — the
// generated catalog plus its self-metrics — with the model Train fits on
// it and Train's vectors.
var catalogFixture = sync.OnceValue(func() (f struct {
	corpus []string
	model  *Model
	vecs   []Vector
}) {
	db := catalog.Generate()
	db.AddSelfMetrics()
	for _, d := range db.Documents() {
		f.corpus = append(f.corpus, d.Text)
	}
	f.model, f.vecs = Train(f.corpus, DomainLexicon(), DefaultOptions())
	return f
})

// sameBits reports the first component where a and b, of one length,
// differ as float32 bit patterns, or -1.
func sameBits(a, b Vector) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestEmbedMatchesReference: on every catalog document, self-metrics
// included, and on the empty string, Train's vector and Embed are the
// reference embedding bit for bit.
func TestEmbedMatchesReference(t *testing.T) {
	f := catalogFixture()
	if len(f.vecs) != len(f.corpus) {
		t.Fatalf("Train returned %d vectors for %d documents", len(f.vecs), len(f.corpus))
	}
	for i, text := range append(f.corpus, "") {
		want := referenceEmbed(f.model, text)
		if l := sameBits(f.model.Embed(text), want); l >= 0 {
			t.Fatalf("Embed(%q) differs from the reference at component %d", text, l)
		}
		if i < len(f.vecs) {
			if l := sameBits(f.vecs[i], want); l >= 0 {
				t.Fatalf("Train's vector %d (%q) differs from the reference at component %d", i, text, l)
			}
		}
	}
}

// TestCorpusEmbeddingGolden pins the SHA-256 of every catalog document's
// vector (Float32bits, little-endian, in document order). The digest was
// computed at commit 2b1b486 by the embedder that hashed with hash/fnv and
// concatenated feature names, before Train returned vectors.
func TestCorpusEmbeddingGolden(t *testing.T) {
	const want = "c9dee67e42299346682ddf31d328151adfc30468432ef47256b5bd04ae8fe40d"
	f := catalogFixture()
	if len(f.corpus) != 3152 {
		t.Fatalf("catalog has %d documents, the golden covers 3152", len(f.corpus))
	}
	h := sha256.New()
	var b [4]byte
	for _, v := range f.vecs {
		for _, x := range v {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
			h.Write(b[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("corpus embedding digest %s, want %s", got, want)
	}
}

// TestEmbedAllocCeiling: embedding a question allocates its tokens, the
// expanded token slice and the vector, not a hasher and a string per
// feature (the reference allocates 735 times on this question).
func TestEmbedAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	m := catalogFixture().model
	const q = "What is the initial registration success rate at the AMF?"
	n := testing.AllocsPerRun(100, func() { m.Embed(q) })
	t.Logf("%.0f allocations per Embed", n)
	if n > 32 {
		t.Errorf("Embed allocates %.0f times per question, ceiling 32", n)
	}
}

// FuzzEmbedMatchesReference: on arbitrary text Embed is the reference
// embedding bit for bit.
func FuzzEmbedMatchesReference(f *testing.F) {
	for _, s := range []string{
		"",
		"How many PDU sessions were established?",
		"LCS NI-LR success",
		"amfcc_n1_auth_request: The number of authentication requests sent by AMF.",
		"SmfPduSessionCreate retries at the N3IWF",
		"a an the of",
		"x",
		"Größe der Übertragung — ÄÖÜ ß",
		"セッション確立 の 失敗率",
		"İstanbul ǅemal ﬁle ́è",
		"network induced location request handover handover",
		"\xff\xfe invalid utf-8 \xc0",
	} {
		f.Add(s)
	}
	m, _ := Train(corpus, DomainLexicon(), DefaultOptions())
	f.Fuzz(func(t *testing.T, text string) {
		if l := sameBits(m.Embed(text), referenceEmbed(m, text)); l >= 0 {
			t.Fatalf("Embed(%q) differs from the reference at component %d", text, l)
		}
	})
}
