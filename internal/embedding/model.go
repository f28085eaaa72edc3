package embedding

import (
	"encoding/gob"
	"errors"
	"hash/fnv"
	"io"
	"math"

	"dio/internal/textutil"
)

// Options configures a Model. The zero value is not usable; call
// DefaultOptions.
type Options struct {
	// Dim is the embedding dimensionality. The paper's all-MiniLM-L6-v2
	// produces 384 dimensions; we default to the same.
	Dim int
	// UnigramWeight scales IDF-weighted word features.
	UnigramWeight float64
	// BigramWeight scales word-bigram features (phrase identity).
	BigramWeight float64
	// SubwordWeight scales character n-gram features (robustness to
	// compounds, hyphenation and near-miss spellings).
	SubwordWeight float64
	// SubwordNs lists the character n-gram sizes extracted per token.
	SubwordNs []int
	// DefaultIDF is used for tokens unseen at Train time.
	DefaultIDF float64
}

// DefaultOptions returns the configuration used throughout the repository.
func DefaultOptions() Options {
	return Options{
		Dim:           384,
		UnigramWeight: 1.0,
		BigramWeight:  0.8,
		SubwordWeight: 0.12,
		SubwordNs:     []int{3, 4},
		DefaultIDF:    6.0,
	}
}

// Model is a frozen text-embedding model. It is safe for concurrent use
// after Train/Load.
type Model struct {
	opts Options
	lex  *Lexicon
	idf  map[string]float64
	docs int
}

// Train fits the IDF table on corpus and returns a frozen model using the
// supplied lexicon (nil for none).
func Train(corpus []string, lex *Lexicon, opts Options) *Model {
	if opts.Dim <= 0 {
		opts = DefaultOptions()
	}
	m := &Model{opts: opts, lex: lex, idf: make(map[string]float64), docs: len(corpus)}
	df := make(map[string]int)
	for _, doc := range corpus {
		toks := m.features(doc)
		seen := make(map[string]bool, len(toks))
		for _, t := range toks {
			if !seen[t] {
				seen[t] = true
				df[t]++
			}
		}
	}
	n := float64(len(corpus))
	for t, d := range df {
		m.idf[t] = math.Log(1 + n/float64(d))
	}
	return m
}

// features returns the normalised, lexicon-expanded word tokens of text.
func (m *Model) features(text string) []string {
	toks := textutil.NormalizeTokens(text)
	if m.lex != nil {
		toks = m.lex.Expand(toks)
	}
	return toks
}

// Dim returns the embedding dimensionality.
func (m *Model) Dim() int { return m.opts.Dim }

// IDF returns the inverse document frequency of a (normalised) token,
// falling back to DefaultIDF for unseen tokens.
func (m *Model) IDF(tok string) float64 {
	if v, ok := m.idf[tok]; ok {
		return v
	}
	return m.opts.DefaultIDF
}

// Embed maps text to a unit-norm vector. Embedding is deterministic: the
// same text always yields the same vector.
func (m *Model) Embed(text string) Vector {
	v := make(Vector, m.opts.Dim)
	toks := m.features(text)
	for _, t := range toks {
		m.addFeature(v, "u:"+t, m.opts.UnigramWeight*m.IDF(t))
		if m.opts.SubwordWeight > 0 {
			for _, n := range m.opts.SubwordNs {
				for _, g := range textutil.CharNGrams(t, n) {
					m.addFeature(v, "c:"+g, m.opts.SubwordWeight)
				}
			}
		}
	}
	if m.opts.BigramWeight > 0 {
		for _, bg := range textutil.WordNGrams(toks, 2) {
			m.addFeature(v, "b:"+bg, m.opts.BigramWeight)
		}
	}
	Normalize(v)
	return v
}

// addFeature hashes a named feature into two buckets with signed weights
// (feature hashing with two hash functions reduces collision noise).
func (m *Model) addFeature(v Vector, name string, w float64) {
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

// modelState is the gob wire form of a Model.
type modelState struct {
	Opts Options
	IDF  map[string]float64
	Docs int
}

// Save serialises the model (IDF table and options; the lexicon is code,
// not data, and is re-attached at Load).
func (m *Model) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(modelState{Opts: m.opts, IDF: m.idf, Docs: m.docs})
}

// Load deserialises a model saved with Save and attaches lex.
func Load(r io.Reader, lex *Lexicon) (*Model, error) {
	var st modelState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, err
	}
	if st.Opts.Dim <= 0 {
		return nil, errors.New("embedding: corrupt model state: non-positive dim")
	}
	return &Model{opts: st.Opts, lex: lex, idf: st.IDF, docs: st.Docs}, nil
}
