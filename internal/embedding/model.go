package embedding

import (
	"math"
	"runtime"
	"sync"

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
// after Train.
type Model struct {
	opts Options
	lex  *Lexicon
	idf  map[string]float64
}

// Train fits the IDF table on corpus and returns a frozen model using the
// supplied lexicon (nil for none) and every document's vector: vecs[i] is
// m.Embed(corpus[i]), computed from the tokens IDF was fitted on.
func Train(corpus []string, lex *Lexicon, opts Options) (m *Model, vecs []Vector) {
	if opts.Dim <= 0 {
		opts = DefaultOptions()
	}
	m = &Model{opts: opts, lex: lex, idf: make(map[string]float64)}
	toks := make([][]string, len(corpus))
	forEach(len(corpus), func(i int) { toks[i] = m.features(corpus[i]) })
	df := make(map[string]int)
	seen := make(map[string]bool)
	for _, doc := range toks {
		clear(seen)
		for _, t := range doc {
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
	vecs = make([]Vector, len(corpus))
	forEach(len(corpus), func(i int) { vecs[i] = m.embedFeatures(toks[i]) })
	return m, vecs
}

// forEach calls f(i) for every i in [0, n), striding the indices over
// GOMAXPROCS goroutines, and returns when all calls have.
func forEach(n int, f func(i int)) {
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				f(i)
			}
		}()
	}
	wg.Wait()
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
	return m.embedFeatures(m.features(text))
}

// FNV-1a (64-bit) is a streaming hash: hashing a name piece by piece gives
// the hash of the whole, so a feature name like "c:" + n-gram is never
// built as a string.
const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// fnvAdd continues the FNV-1a hash h over the bytes of s.
func fnvAdd[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// embedFeatures maps the tokens features returns to a unit-norm vector:
// per token its IDF-weighted unigram "u:"+tok and its character n-grams
// "c:"+gram of "^"+tok+"$" (the whole padded token when it is shorter than
// n), then every word bigram "b:"+tok+" "+next, each hashed into the vector.
func (m *Model) embedFeatures(toks []string) Vector {
	v := make(Vector, m.opts.Dim)
	unigram, subword, bigram := fnvAdd(fnvOffset, "u:"), fnvAdd(fnvOffset, "c:"), fnvAdd(fnvOffset, "b:")
	var scratch [32]byte
	padded := scratch[:0]
	for _, t := range toks {
		m.addFeature(v, fnvAdd(unigram, t), m.opts.UnigramWeight*m.IDF(t))
		if m.opts.SubwordWeight > 0 {
			padded = append(append(append(padded[:0], '^'), t...), '$')
			for _, n := range m.opts.SubwordNs {
				switch {
				case n <= 0: // no grams of that size
				case len(padded) < n:
					m.addFeature(v, fnvAdd(subword, padded), m.opts.SubwordWeight)
				default:
					for i := 0; i+n <= len(padded); i++ {
						m.addFeature(v, fnvAdd(subword, padded[i:i+n]), m.opts.SubwordWeight)
					}
				}
			}
		}
	}
	if m.opts.BigramWeight > 0 {
		for i := 0; i+1 < len(toks); i++ {
			h := fnvAdd(fnvAdd(bigram, toks[i]), " ")
			m.addFeature(v, fnvAdd(h, toks[i+1]), m.opts.BigramWeight)
		}
	}
	Normalize(v)
	return v
}

// addFeature adds a feature whose name hashes to h1 into two buckets with
// signed weights (feature hashing with two hash functions reduces
// collision noise); the second hash is that of the name followed by "#2".
func (m *Model) addFeature(v Vector, h1 uint64, w float64) {
	if w == 0 {
		return
	}
	h2 := fnvAdd(h1, "#2")
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
