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
	"unsafe"

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

// table is the storage Flat and IVF share. It keeps each row in two forms:
//   - rows[i] holds row i's float32 components as Add received them. Rows
//     are cut from slabs of slabRows rows, so growth never copies them and
//     neighbouring rows lie together. Pass 2 of topK and IVF's k-means
//     read rows here.
//   - q8 holds every row quantised to int8, lane-major: lane l of row i is
//     q8[l*stride+i], so a lane of every row lies contiguous. Component l
//     of row i is scale[i]·q8[l*stride+i] off by at most qerr[i] (see set).
//     Pass 1 reads only these.
//
// norms holds each row's L2 norm and stride is the row capacity of q8.
// Every stored component is finite, which topK's zero-lane skip relies
// on.
type table struct {
	dim    int
	ids    []string
	norms  []float64
	rows   []embedding.Vector
	slab   embedding.Vector // the slab the next rows are cut from
	q8     []int8
	scale  []float64
	qerr   []float64
	stride int
	pos    map[string]int
}

// slabRows is how many rows one allocation of rows holds.
const slabRows = 64

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

// col returns the int8 lane l of every row.
func (t *table) col(l int32) []int8 {
	return t.q8[int(l)*t.stride:][:len(t.ids)]
}

// set overwrites every form of row i with a checked vector: its
// components, norm, int8 lanes, scale and quantisation error.
//
// A lane is x·(127/max|x|) rounded to an integer, so it lies in ±127, and
// the scale is max|x|/127. Any rounding would do, because qerr is not
// derived from the rounding but measured: the largest |x − scale·v| of
// the row as float64 computes it, plus max|x|·2⁻⁵⁰. Each of the two
// roundings in that computation is at most 2⁻⁵³·max|x|, so qerr bounds
// the exact error. A zero row has scale 0, lanes 0 and qerr 0. The
// rounding adds and subtracts 1.5·2⁵² rather than call math.Round, and
// the maxima are plain comparisons: this loop runs for every component
// of every row a retriever indexes at start-up.
func (t *table) set(i int, vec embedding.Vector) {
	row := t.rows[i]
	copy(row, vec)
	var sq, top float64
	for _, x := range row {
		a := math.Abs(float64(x))
		sq += a * a
		if a > top {
			top = a
		}
	}
	var scale, inv, worst float64
	if top > 0 {
		scale, inv = top/127, 127/top
	}
	const round = 0x1.8p52 // x + round - round is x rounded to an integer, for |x| < 2⁵¹
	q8, stride := t.q8[i:], t.stride
	for l, x := range row {
		v := float64(x)*inv + round - round
		q8[l*stride] = int8(v)
		if d := math.Abs(float64(x) - scale*v); d > worst {
			worst = d
		}
	}
	t.norms[i], t.scale[i], t.qerr[i] = math.Sqrt(sq), scale, worst+top*0x1p-50
}

// add stores a checked vector under a new id and returns its row.
func (t *table) add(id string, vec embedding.Vector) int {
	i := len(t.ids)
	if i == t.stride {
		// Half as much again, in whole 16-byte blocks, so no four-row
		// load of a lane straddles a cache line.
		stride := (max(i+i/2, 16) + 15) &^ 15
		q8 := make([]int8, t.dim*stride)
		for l := 0; l < t.dim; l++ {
			copy(q8[l*stride:], t.col(int32(l)))
		}
		t.q8, t.stride = q8, stride
	}
	t.pos[id] = i
	t.ids = append(t.ids, id)
	if i%slabRows == 0 {
		t.slab = make(embedding.Vector, slabRows*t.dim)
	}
	t.rows = append(t.rows, t.slab[i%slabRows*t.dim:][:t.dim:t.dim])
	t.norms, t.scale, t.qerr = append(t.norms, 0), append(t.scale, 0), append(t.qerr, 0)
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

// leaders holds pass 1's leaders, the rows with the k best estimates so
// far, best first. Only scores order them, and an estimate that merely
// ties the k-th does not get in: any k rows give a valid tau, so the id
// tie-break of offer would buy nothing here.
type leaders []hit

// add puts h, whose score beats the floor, among the leaders, and returns
// them and the new floor: the k-th score once there are k, −Inf before.
func (l leaders) add(k int, h hit) (leaders, float64) {
	if len(l) < k {
		l = append(l, h)
	}
	i := len(l) - 1
	for ; i > 0 && l[i-1].score < h.score; i-- {
		l[i] = l[i-1]
	}
	l[i] = h
	if len(l) < k {
		return l, math.Inf(-1)
	}
	return l, l[k-1].score
}

// lane is one non-zero component of a query, widened to float64. The
// amd64 kernel reads its fields by the offsets go_asm.h gives.
type lane struct {
	i int32
	v float64
}

// heavyLanes is how many of a query's lanes the first pass of topK sums,
// the largest by magnitude. Over the catalog and 882 cold questions (170
// non-zero lanes on average) a search scored 534 of 3092 rows in full
// with 16 heavy lanes, 215 with 24, 149 with 32, 120 with 40 and 105 with
// 48, and took 201, 125, 128, 128 and 134 µs (DESIGN §15): from 24 to 40
// a lane of the packed sweep costs about what it spares in rescoring.
const heavyLanes = 32

// splitLanes returns the heavyLanes largest of lanes by magnitude (all of
// them when there are no more), still in lane order; Q₁, the sum of their
// magnitudes; and the slack that bounds what the other lanes can add to a
// row's score: a row of norm ‖r‖ scores at most slack·‖r‖ above its sum
// over the heavy lanes.
//
// By Cauchy–Schwarz the light lanes add at most λ·‖r‖, λ their L2 norm.
// The rest of the slack covers rounding. A product of two float32 is
// exact in float64, so a computed sum of n products is off by at most
// n·2⁻⁵³·‖q‖·‖r‖, 4.3e-14·‖q‖·‖r‖ at 384 lanes, for the full score and
// for the heavy sum alike; the 1e-9·‖q‖ term is four orders above the
// two together, and it stays when there are no light lanes. λ, Q₁, ‖q‖
// and ‖r‖ are themselves computed sums, each right to a few parts in
// 1e14, which the factors 1+1e-6 cover.
func splitLanes(lanes, heavy []lane) ([]lane, float64, float64) {
	// big holds the heavyLanes largest magnitudes, largest first, and 0
	// in the slots fewer lanes leave.
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
	var q1, light, all float64
	for _, l := range lanes {
		a := math.Abs(l.v)
		all += a * a
		switch {
		case a > cut:
			heavy = append(heavy, l)
			q1 += a
		case a == cut && ties > 0:
			heavy = append(heavy, l)
			q1 += a
			ties--
		default:
			light += a * a
		}
	}
	return heavy, q1 * (1 + 1e-6), math.Sqrt(light)*(1+1e-6) + math.Sqrt(all)*1e-9
}

// accumulate adds to acc[r], for each of rows (every row when rows is
// nil), the products of lanes with the int8 lanes of row r, one lane
// after another in the order given. A sweep of every row hands its whole
// groups of four rows to sweep4, the packed kernel where the CPU has one,
// and the rest to sweepGo. Both add the same exact products in the same
// order, so a sum does not depend on which of them ran.
func (t *table) accumulate(acc []float64, lanes []lane, rows []int) {
	if rows == nil {
		acc = acc[:len(t.ids)]
		sweepGo(acc, t.q8, t.stride, lanes, sweep4(acc, t.q8, t.stride, lanes))
		return
	}
	for i := 0; i < len(lanes); i += 4 {
		var q [4]lane
		copy(q[:], lanes[i:])
		c0, c1, c2, c3 := t.col(q[0].i), t.col(q[1].i), t.col(q[2].i), t.col(q[3].i)
		for _, r := range rows {
			s := acc[r]
			s += q[0].v * float64(c0[r])
			s += q[1].v * float64(c1[r])
			s += q[2].v * float64(c2[r])
			s += q[3].v * float64(c3[r])
			acc[r] = s
		}
	}
}

// sweepGo adds to acc[r], for lo ≤ r < len(acc), the products of lanes
// with lane-major int8 rows of the given stride, one lane after another
// in the order given. It is the portable path and the kernel's
// reference. Four lanes share a sweep so acc is read and written once for
// four products; a short last group is filled with zero lanes, whose ±0
// products change no sum (see topK).
func sweepGo(acc []float64, q8 []int8, stride int, lanes []lane, lo int) {
	a := acc[lo:]
	for i := 0; i < len(lanes); i += 4 {
		var q [4]lane
		copy(q[:], lanes[i:])
		c0 := q8[int(q[0].i)*stride+lo:][:len(a)]
		c1 := q8[int(q[1].i)*stride+lo:][:len(a)]
		c2 := q8[int(q[2].i)*stride+lo:][:len(a)]
		c3 := q8[int(q[3].i)*stride+lo:][:len(a)]
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

// rescore sets acc[r], for each of rows, to row r's full score from its
// float32 components: the products with lanes, lanes ascending, as
// embedding.Dot adds them. Four rows go together so that their sums are
// four independent chains. Every lane index is below dim, the length of
// every row, so the four-row loop reads the rows without bounds checks.
func (t *table) rescore(acc []float64, lanes []lane, rows []int) {
	j := 0
	for ; j+4 <= len(rows); j += 4 {
		p0 := unsafe.Pointer(unsafe.SliceData(t.rows[rows[j]]))
		p1 := unsafe.Pointer(unsafe.SliceData(t.rows[rows[j+1]]))
		p2 := unsafe.Pointer(unsafe.SliceData(t.rows[rows[j+2]]))
		p3 := unsafe.Pointer(unsafe.SliceData(t.rows[rows[j+3]]))
		var s0, s1, s2, s3 float64
		for _, l := range lanes {
			o := uintptr(l.i) * 4
			s0 += l.v * float64(*(*float32)(unsafe.Add(p0, o)))
			s1 += l.v * float64(*(*float32)(unsafe.Add(p1, o)))
			s2 += l.v * float64(*(*float32)(unsafe.Add(p2, o)))
			s3 += l.v * float64(*(*float32)(unsafe.Add(p3, o)))
		}
		acc[rows[j]], acc[rows[j+1]], acc[rows[j+2]], acc[rows[j+3]] = s0, s1, s2, s3
	}
	for ; j < len(rows); j++ {
		row := t.rows[rows[j]]
		var s float64
		for _, l := range lanes {
			s += l.v * float64(row[l.i])
		}
		acc[rows[j]] = s
	}
}

// scratch is the per-search working memory: the query's non-zero lanes,
// the heavy ones among them, one accumulator per stored row, pass 1's
// leaders, the rows to rescore and the k best hits so far.
type scratch struct {
	lanes, heavy []lane
	acc          []float64
	lead         leaders
	cand         []int
	top          []hit
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// topK scores n rows against query and returns the k best, best first,
// ties broken by id, and how many rows it scored in full. Row j of the
// scan is rows[j], or j itself when rows is nil; no row is listed twice.
//
// Each returned score has exactly the bits of embedding.Dot(query, row):
// rescore adds the same products in the same ascending lane order and
// only leaves out lanes where the query is zero, whose product with a
// finite row is ±0 and cannot change a float64 sum that started at +0.
// Like embedding.Dot it panics on a query of the wrong dimension.
//
// A search takes two passes. Pass 1 estimates every row's sum over the
// heavy lanes from its int8 lanes, scale·Σ q_h·v_h. The heavy sum of the
// row itself differs from that by at most Q₁·qerr (each component is off
// by at most qerr, and Q₁ = Σ|q_h|), and the light lanes add at most
// slack·‖r‖ (splitLanes). The k rows leading on the estimate are scored
// in full, and the least of their scores, tau, is a floor on the k-th
// best score overall. A row whose estimate plus those two margins stays
// below tau cannot be among the k best; pass 2 scores in full only the
// others. What is ranked is full scores alone, so the estimate changes
// the work, not the result.
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
	heavy, q1, slack := splitLanes(lanes, sc.heavy[:0])
	if cap(sc.acc) < len(t.ids) {
		sc.acc = make([]float64, len(t.ids))
	}
	acc := sc.acc[:len(t.ids)]
	clear(acc)
	t.accumulate(acc, heavy, rows)
	// Pass 1 keeps the rows with the k best estimates as leaders and
	// leaves in acc the most each row can score. The loop over every row
	// is written apart so that it reads its arrays without bounds checks.
	lead, floor := sc.lead[:0], math.Inf(-1)
	if rows == nil {
		scale, qerr, norms := t.scale[:n], t.qerr[:n], t.norms[:n]
		for r, a := range acc[:n] {
			e := scale[r] * a
			acc[r] = e + q1*qerr[r] + slack*norms[r]
			if e > floor {
				lead, floor = lead.add(k, hit{e, r})
			}
		}
	} else {
		for _, r := range rows[:n] {
			e := t.scale[r] * acc[r]
			acc[r] = e + q1*t.qerr[r] + slack*t.norms[r]
			if e > floor {
				lead, floor = lead.add(k, hit{e, r})
			}
		}
	}
	for _, h := range lead {
		cand = append(cand, h.row)
	}
	t.rescore(acc, lanes, cand)
	tau := math.Inf(1)
	for _, r := range cand {
		tau = min(tau, acc[r])
		top = t.offer(top, k, hit{acc[r], r})
		acc[r] = math.Inf(-1) // ranked: pass 2 leaves it out
	}
	// Pass 2 scores in full the rows whose most reaches tau.
	cand = cand[:0]
	if rows == nil {
		for r, most := range acc[:n] {
			if most >= tau {
				cand = append(cand, r)
			}
		}
	} else {
		for _, r := range rows[:n] {
			if acc[r] >= tau {
				cand = append(cand, r)
			}
		}
	}
	t.rescore(acc, lanes, cand)
	for _, r := range cand {
		top = t.offer(top, k, hit{acc[r], r})
	}
	out := make([]Result, len(top))
	for i, h := range top {
		out[i] = Result{ID: t.ids[h.row], Score: h.score}
	}
	sc.lanes, sc.heavy, sc.cand, sc.top, sc.lead = lanes, heavy, cand, top, lead
	scratchPool.Put(sc)
	return out, k + len(cand)
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
