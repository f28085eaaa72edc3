// Package embedding implements the deterministic text-embedding model that
// stands in for the sentence-BERT all-MiniLM-L6-v2 encoder used by the
// paper (§4). Text is mapped into a fixed-dimension vector via feature
// hashing of IDF-weighted word unigrams and bigrams plus character n-gram
// subword features, after domain-lexicon expansion. Vectors are
// L2-normalised so the dot product is cosine similarity.
//
// The model is frozen after Train (like the paper's encoder): embedding the
// same text always yields the same vector, and documents whose descriptions
// are semantically close to a question land nearby even without exact token
// overlap, which is the property the DIO context extractor depends on.
package embedding

import (
	"fmt"
	"math"
)

// Vector is a dense embedding. All vectors produced by one Model share the
// model's dimensionality.
type Vector []float32

// Dot returns the inner product of two vectors. It panics if lengths
// differ, which always indicates mixing vectors from different models.
func Dot(a, b Vector) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("embedding: dot of mismatched dims %d and %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// Norm returns the Euclidean norm of v.
func Norm(v Vector) float64 {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return math.Sqrt(s)
}

// Normalize scales v in place to unit norm. A zero vector is left
// unchanged.
func Normalize(v Vector) {
	n := Norm(v)
	if n == 0 {
		return
	}
	inv := float32(1 / n)
	for i := range v {
		v[i] *= inv
	}
}

// Clone returns an independent copy of v.
func Clone(v Vector) Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}
