// Package vecstore provides vector similarity indexes standing in for the
// FAISS library used by the paper (§4): an exact Flat index and an
// approximate IVF (inverted-file, k-means coarse quantiser) index. Both
// store unit-norm embeddings and return top-k results by cosine
// similarity (inner product on normalised vectors).
package vecstore

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"dio/internal/embedding"
)

// Result is one search hit.
type Result struct {
	// ID is the caller-supplied identifier of the stored vector.
	ID string
	// Score is the cosine similarity to the query, higher is closer.
	Score float64
}

// Index is the common contract of vector indexes.
type Index interface {
	// Add stores vec under id. Adding an existing id replaces the vector.
	Add(id string, vec embedding.Vector) error
	// Search returns up to k nearest entries by cosine similarity,
	// best first.
	Search(query embedding.Vector, k int) []Result
	// Len returns the number of stored vectors.
	Len() int
}

// table is the storage Flat and IVF share: the ids and one row-major
// matrix holding row i at data[i*dim:(i+1)*dim]. Every stored component is
// finite, which topK's zero-lane skip relies on.
type table struct {
	dim  int
	ids  []string
	data []float32
	pos  map[string]int
}

// check rejects a vector the table cannot hold.
func (t *table) check(vec embedding.Vector) error {
	if len(vec) != t.dim {
		return fmt.Errorf("vecstore: vector dim %d does not match index dim %d", len(vec), t.dim)
	}
	for i, x := range vec {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return fmt.Errorf("vecstore: vector component %d is %v", i, x)
		}
	}
	return nil
}

// row returns a view of row i.
func (t *table) row(i int) embedding.Vector {
	return t.data[i*t.dim : (i+1)*t.dim : (i+1)*t.dim]
}

// add stores a checked vector under a new id and returns its row.
func (t *table) add(id string, vec embedding.Vector) int {
	i := len(t.ids)
	t.pos[id] = i
	t.ids = append(t.ids, id)
	t.data = append(t.data, vec...)
	return i
}

// hit is a scored row; before ranks hits by score, then by id.
type hit struct {
	score float64
	row   int
}

func (t *table) before(a, b hit) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return t.ids[a.row] < t.ids[b.row]
}

// lane is one non-zero component of a query, widened to float64.
type lane struct {
	i int32
	v float64
}

// scratch is the per-search working memory: the query's non-zero lanes and
// the k best hits so far.
type scratch struct {
	lanes []lane
	top   []hit
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// topK scores n rows against query and returns the k best, best first,
// ties broken by id. Row j of the scan is rows[j], or j itself when rows
// is nil. Each score has exactly the bits of embedding.Dot(query, row):
// the kernel adds the same products in the same ascending lane order and
// only leaves out lanes where the query is zero, whose product with a
// finite row is ±0 and cannot change a float64 sum that started at +0.
// Like embedding.Dot it panics on a query of the wrong dimension.
func (t *table) topK(query embedding.Vector, k int, rows []int, n int) []Result {
	k = min(k, n)
	if k <= 0 {
		return nil
	}
	if len(query) != t.dim {
		panic(fmt.Sprintf("vecstore: query dim %d does not match index dim %d", len(query), t.dim))
	}
	sc := scratchPool.Get().(*scratch)
	lanes, top := sc.lanes[:0], sc.top[:0]
	for i, x := range query {
		if x != 0 {
			lanes = append(lanes, lane{int32(i), float64(x)})
		}
	}
	// Four rows per pass keep four independent add chains in flight; a
	// short last pass repeats row n-1 and drops the repeats.
	for j := 0; j < n; j += 4 {
		var r [4]int
		for x := range r {
			r[x] = min(j+x, n-1)
			if rows != nil {
				r[x] = rows[r[x]]
			}
		}
		s := dot4(lanes, t.row(r[0]), t.row(r[1]), t.row(r[2]), t.row(r[3]))
		for x := 0; x < 4 && j+x < n; x++ {
			h := hit{s[x], r[x]}
			// top holds the best ≤k hits in rank order: insertion sort
			// bounded to k slots.
			if len(top) < k {
				top = append(top, h)
			} else if !t.before(h, top[k-1]) {
				continue
			}
			i := len(top) - 1
			for ; i > 0 && t.before(h, top[i-1]); i-- {
				top[i] = top[i-1]
			}
			top[i] = h
		}
	}
	out := make([]Result, len(top))
	for i, h := range top {
		out[i] = Result{ID: t.ids[h.row], Score: h.score}
	}
	sc.lanes, sc.top = lanes, top
	scratchPool.Put(sc)
	return out
}

// dot4 returns the inner products of four rows with the query given as
// its non-zero lanes in ascending order.
func dot4(lanes []lane, r0, r1, r2, r3 []float32) [4]float64 {
	var s0, s1, s2, s3 float64
	for _, l := range lanes {
		s0 += l.v * float64(r0[l.i])
		s1 += l.v * float64(r1[l.i])
		s2 += l.v * float64(r2[l.i])
		s3 += l.v * float64(r3[l.i])
	}
	return [4]float64{s0, s1, s2, s3}
}

// Flat is an exact brute-force index. It is safe for concurrent use.
type Flat struct {
	mu sync.RWMutex
	t  table
}

// NewFlat returns an empty exact index for dim-dimensional vectors.
func NewFlat(dim int) *Flat {
	return &Flat{t: table{dim: dim, pos: make(map[string]int)}}
}

// Dim returns the index dimensionality.
func (f *Flat) Dim() int { return f.t.dim }

// Add stores vec under id, replacing any previous vector with that id.
// Vectors with a NaN or infinite component are rejected.
func (f *Flat) Add(id string, vec embedding.Vector) error {
	if err := f.t.check(vec); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if i, ok := f.t.pos[id]; ok {
		copy(f.t.row(i), vec)
		return nil
	}
	f.t.add(id, vec)
	return nil
}

// Len returns the number of stored vectors.
func (f *Flat) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.t.ids)
}

// Get returns the stored vector for id, if present.
func (f *Flat) Get(id string) (embedding.Vector, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	i, ok := f.t.pos[id]
	if !ok {
		return nil, false
	}
	return embedding.Clone(f.t.row(i)), true
}

// Search returns the k nearest stored vectors to query, best first. Ties
// break by id for determinism.
func (f *Flat) Search(query embedding.Vector, k int) []Result {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.t.topK(query, k, nil, len(f.t.ids))
}

// flatState is the gob wire form of a Flat index.
type flatState struct {
	Dim  int
	IDs  []string
	Vecs []embedding.Vector
}

// Save serialises the index.
func (f *Flat) Save(w io.Writer) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	vecs := make([]embedding.Vector, len(f.t.ids))
	for i := range vecs {
		vecs[i] = f.t.row(i)
	}
	return gob.NewEncoder(w).Encode(flatState{Dim: f.t.dim, IDs: f.t.ids, Vecs: vecs})
}

var errCorruptFlat = errors.New("vecstore: corrupt flat index state")

// LoadFlat deserialises an index saved with Save. A state with mismatched
// counts, a duplicated id or a vector Add would reject is corrupt.
func LoadFlat(r io.Reader) (*Flat, error) {
	var st flatState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, err
	}
	if st.Dim < 0 || len(st.IDs) != len(st.Vecs) {
		return nil, errCorruptFlat
	}
	f := NewFlat(st.Dim)
	for i, id := range st.IDs {
		if _, dup := f.t.pos[id]; dup || f.t.check(st.Vecs[i]) != nil {
			return nil, errCorruptFlat
		}
		f.t.add(id, st.Vecs[i])
	}
	return f, nil
}
