// Package vecstore provides vector similarity indexes standing in for the
// FAISS library used by the paper (§4): an exact Flat index and an
// approximate IVF (inverted-file, k-means coarse quantiser) index. Both
// return top-k results by inner product, which is cosine similarity on
// the unit-norm embeddings the retriever stores.
package vecstore

import (
	"fmt"
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
}

// table is the storage Flat and IVF share: the ids, each row's L2 norm and
// one lane-major matrix holding lane l of row i at data[l*stride+i]. A
// search reads a few whole lanes, so a lane is what lies contiguous;
// stride is the row capacity. Every stored component is finite, which
// topK's zero-lane skip relies on.
type table struct {
	dim    int
	ids    []string
	norms  []float64
	data   []float32
	stride int
	pos    map[string]int
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

// col returns lane l of every row.
func (t *table) col(l int32) []float32 {
	return t.data[int(l)*t.stride:][:len(t.ids)]
}

// row copies row i into dst, which has dim components.
func (t *table) row(i int, dst embedding.Vector) embedding.Vector {
	for l := range dst {
		dst[l] = t.data[l*t.stride+i]
	}
	return dst
}

// set overwrites row i with a checked vector and records its norm.
func (t *table) set(i int, vec embedding.Vector) {
	var sq float64
	for l, x := range vec {
		t.data[l*t.stride+i] = x
		sq += float64(x) * float64(x)
	}
	t.norms[i] = math.Sqrt(sq)
}

// add stores a checked vector under a new id and returns its row.
func (t *table) add(id string, vec embedding.Vector) int {
	i := len(t.ids)
	if i == t.stride {
		// Half as much again, in whole 64-byte lines.
		stride := (max(i+i/2, 16) + 15) &^ 15
		data := make([]float32, t.dim*stride)
		for l := 0; l < t.dim; l++ {
			copy(data[l*stride:], t.col(int32(l)))
		}
		t.data, t.stride = data, stride
	}
	t.pos[id] = i
	t.ids = append(t.ids, id)
	t.norms = append(t.norms, 0)
	t.set(i, vec)
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

// offer puts h among top, the best ≤k hits so far in rank order: an
// insertion sort bounded to k slots.
func (t *table) offer(top []hit, k int, h hit) []hit {
	if len(top) < k {
		top = append(top, h)
	} else if !t.before(h, top[k-1]) {
		return top
	}
	i := len(top) - 1
	for ; i > 0 && t.before(h, top[i-1]); i-- {
		top[i] = top[i-1]
	}
	top[i] = h
	return top
}

// lane is one non-zero component of a query, widened to float64.
type lane struct {
	i int32
	v float64
}

// heavyLanes is how many of a query's lanes the first pass of topK scores,
// the largest by magnitude. Over the catalog and 300 cold questions (170
// non-zero lanes on average) the second pass then rescored 543 of 3092
// rows with 16 heavy lanes, 204 with 24, 140 with 32 and 96 with 48: past
// 32 a further lane costs a sweep of every row and spares few.
const heavyLanes = 32

// splitLanes returns the heavyLanes largest of lanes by magnitude, still
// in lane order, and the slack that bounds what the others can add to a
// row's score: a row of norm ‖r‖ scores at most slack·‖r‖ above its sum
// over the heavy lanes. With no more than heavyLanes lanes it returns all
// of them and no slack.
//
// By Cauchy–Schwarz the light lanes add at most λ·‖r‖, λ their L2 norm.
// The rest of the slack covers rounding. A product of two float32 is
// exact in float64, so a computed sum of n products is off by at most
// n·2⁻⁵³·‖q‖·‖r‖, 4.3e-14·‖q‖·‖r‖ at 384 lanes, for the full score and
// for the heavy sum alike; the 1e-9·‖q‖ term is four orders above the
// two together. λ, ‖q‖ and ‖r‖ are themselves computed sums, each right
// to a few parts in 1e14, which the factor 1+1e-6 on λ covers.
func splitLanes(lanes, heavy []lane) ([]lane, float64) {
	if len(lanes) <= heavyLanes {
		return append(heavy, lanes...), 0
	}
	// big holds the heavyLanes largest magnitudes, largest first.
	var big [heavyLanes]float64
	for _, l := range lanes {
		a := math.Abs(l.v)
		if a <= big[heavyLanes-1] {
			continue
		}
		i := heavyLanes - 1
		for ; i > 0 && big[i-1] < a; i-- {
			big[i] = big[i-1]
		}
		big[i] = a
	}
	// Lanes that tie with the smallest of them take the slots the larger
	// ones leave, first come.
	cut, ties := big[heavyLanes-1], heavyLanes
	for _, a := range big {
		if a > cut {
			ties--
		}
	}
	var light, all float64
	for _, l := range lanes {
		a := math.Abs(l.v)
		all += a * a
		switch {
		case a > cut:
			heavy = append(heavy, l)
		case a == cut && ties > 0:
			heavy = append(heavy, l)
			ties--
		default:
			light += a * a
		}
	}
	return heavy, math.Sqrt(light)*(1+1e-6) + math.Sqrt(all)*1e-9
}

// accumulate adds to acc[r], for each of rows (every row when rows is
// nil), the products of lanes with row r, one lane after another in the
// order given. Four lanes share a sweep so acc is read and written once
// for four products; a short last group is filled with zero lanes, whose
// ±0 products change no sum (see topK).
func (t *table) accumulate(acc []float64, lanes []lane, rows []int) {
	for i := 0; i < len(lanes); i += 4 {
		var q [4]lane
		copy(q[:], lanes[i:])
		c0, c1, c2, c3 := t.col(q[0].i), t.col(q[1].i), t.col(q[2].i), t.col(q[3].i)
		if rows != nil {
			for _, r := range rows {
				s := acc[r]
				s += q[0].v * float64(c0[r])
				s += q[1].v * float64(c1[r])
				s += q[2].v * float64(c2[r])
				s += q[3].v * float64(c3[r])
				acc[r] = s
			}
			continue
		}
		a := acc[:len(c0)]
		c1, c2, c3 = c1[:len(a)], c2[:len(a)], c3[:len(a)]
		for r := range a {
			s := a[r]
			s += q[0].v * float64(c0[r])
			s += q[1].v * float64(c1[r])
			s += q[2].v * float64(c2[r])
			s += q[3].v * float64(c3[r])
			a[r] = s
		}
	}
}

// rescore replaces the partial sums of rows with their full scores.
func (t *table) rescore(acc []float64, lanes []lane, rows []int) {
	if len(rows) == 0 {
		return
	}
	for _, r := range rows {
		acc[r] = 0
	}
	t.accumulate(acc, lanes, rows)
}

// scratch is the per-search working memory: the query's non-zero lanes,
// the heavy ones among them, one accumulator per stored row, the rows to
// rescore and the k best hits so far.
type scratch struct {
	lanes, heavy []lane
	acc          []float64
	cand         []int
	top          []hit
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// topK scores n rows against query and returns the k best, best first,
// ties broken by id, and how many rows it scored twice. Row j of the scan
// is rows[j], or j itself when rows is nil; no row is listed twice.
//
// Each score has exactly the bits of embedding.Dot(query, row): accumulate
// adds the same products in the same ascending lane order and only leaves
// out lanes where the query is zero, whose product with a finite row is
// ±0 and cannot change a float64 sum that started at +0. Like
// embedding.Dot it panics on a query of the wrong dimension.
//
// A query of more than heavyLanes lanes is scored in two passes. The first
// sums the heavy lanes only. The k rows leading on that partial sum are
// then scored in full, and the least of their scores, tau, is a floor on
// the k-th best score overall; a row whose partial sum plus the most its
// light lanes can add (splitLanes) stays below tau cannot be among the k
// best, and the second pass scores in full only the others. What is
// ranked is full scores alone, so pruning changes the work, not the
// result.
func (t *table) topK(query embedding.Vector, k int, rows []int, n int) ([]Result, int) {
	k = min(k, n)
	if k <= 0 {
		return nil, 0
	}
	if len(query) != t.dim {
		panic(fmt.Sprintf("vecstore: query dim %d does not match index dim %d", len(query), t.dim))
	}
	sc := scratchPool.Get().(*scratch)
	lanes, cand, top := sc.lanes[:0], sc.cand[:0], sc.top[:0]
	for i, x := range query {
		if x != 0 {
			lanes = append(lanes, lane{int32(i), float64(x)})
		}
	}
	heavy, slack := splitLanes(lanes, sc.heavy[:0])
	if cap(sc.acc) < len(t.ids) {
		sc.acc = make([]float64, len(t.ids))
	}
	acc := sc.acc[:len(t.ids)]
	clear(acc)
	t.accumulate(acc, heavy, rows)
	for j := 0; j < n; j++ {
		r := j
		if rows != nil {
			r = rows[j]
		}
		if len(top) < k || acc[r] >= top[k-1].score {
			top = t.offer(top, k, hit{acc[r], r})
		}
	}
	rescored := 0
	if len(heavy) < len(lanes) {
		for _, h := range top {
			cand = append(cand, h.row)
		}
		t.rescore(acc, lanes, cand)
		tau := math.Inf(1)
		top = top[:0]
		for _, r := range cand {
			tau = min(tau, acc[r])
			top = t.offer(top, k, hit{acc[r], r})
			acc[r] = math.Inf(-1) // ranked: the second pass leaves it out
		}
		cand = cand[:0]
		for j := 0; j < n; j++ {
			r := j
			if rows != nil {
				r = rows[j]
			}
			if acc[r]+slack*t.norms[r] >= tau {
				cand = append(cand, r)
			}
		}
		t.rescore(acc, lanes, cand)
		for _, r := range cand {
			top = t.offer(top, k, hit{acc[r], r})
		}
		rescored = k + len(cand)
	}
	out := make([]Result, len(top))
	for i, h := range top {
		out[i] = Result{ID: t.ids[h.row], Score: h.score}
	}
	sc.lanes, sc.heavy, sc.cand, sc.top = lanes, heavy, cand, top
	scratchPool.Put(sc)
	return out, rescored
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

// Add stores vec under id, replacing any previous vector with that id.
// Vectors with a NaN or infinite component are rejected.
func (f *Flat) Add(id string, vec embedding.Vector) error {
	if err := f.t.check(vec); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if i, ok := f.t.pos[id]; ok {
		f.t.set(i, vec)
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

// Search returns the k nearest stored vectors to query, best first. Ties
// break by id for determinism.
func (f *Flat) Search(query embedding.Vector, k int) []Result {
	res, _ := f.search(query, k)
	return res
}

func (f *Flat) search(query embedding.Vector, k int) ([]Result, int) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.t.topK(query, k, nil, len(f.t.ids))
}
