package vecstore

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"dio/internal/embedding"
)

// IVF is an inverted-file index with a k-means coarse quantiser, the
// approximate structure FAISS calls IndexIVFFlat. Vectors are assigned to
// their nearest centroid; a search probes only the NProbe closest lists,
// trading recall for speed. Build must be called after all Adds (further
// Adds after Build assign incrementally to existing lists).
type IVF struct {
	mu        sync.RWMutex
	nlist     int
	nprobe    int
	centroids []embedding.Vector
	lists     [][]int // per-centroid slice of row indexes into t
	t         table
	built     bool
	seed      int64
}

// NewIVF returns an empty IVF index with nlist inverted lists probing
// nprobe lists per search.
func NewIVF(dim, nlist, nprobe int, seed int64) *IVF {
	if nlist < 1 {
		nlist = 1
	}
	if nprobe < 1 {
		nprobe = 1
	}
	if nprobe > nlist {
		nprobe = nlist
	}
	return &IVF{nlist: nlist, nprobe: nprobe, t: table{dim: dim, pos: make(map[string]int)}, seed: seed}
}

// Add stores vec under id. Before Build, vectors are buffered; after
// Build, they are assigned to the nearest existing centroid. Vectors with
// a NaN or infinite component are rejected.
func (ix *IVF) Add(id string, vec embedding.Vector) error {
	if err := ix.t.check(vec); err != nil {
		return err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.t.pos[id]; ok {
		return fmt.Errorf("vecstore: duplicate id %q in IVF index", id)
	}
	i := ix.t.add(id, vec)
	if ix.built {
		c := ix.nearestCentroid(vec)
		ix.lists[c] = append(ix.lists[c], i)
	}
	return nil
}

// Len returns the number of stored vectors.
func (ix *IVF) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.t.ids)
}

// Build trains the k-means coarse quantiser on the buffered vectors and
// assigns every vector to an inverted list. iters bounds the Lloyd
// iterations (10 is plenty for retrieval purposes).
func (ix *IVF) Build(iters int) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	n := len(ix.t.ids)
	if n == 0 {
		return errors.New("vecstore: cannot build IVF index with no vectors")
	}
	if ix.nlist > n {
		ix.nlist = n
		if ix.nprobe > ix.nlist {
			ix.nprobe = ix.nlist
		}
	}
	rng := rand.New(rand.NewSource(ix.seed))
	// k-means++ style seeding: random distinct picks.
	perm := rng.Perm(n)
	ix.centroids = make([]embedding.Vector, ix.nlist)
	for c := 0; c < ix.nlist; c++ {
		ix.centroids[c] = ix.t.row(perm[c], make(embedding.Vector, ix.t.dim))
	}
	assign := make([]int, n)
	row := make(embedding.Vector, ix.t.dim)
	for it := 0; it < iters; it++ {
		changed := false
		for i := range assign {
			c := ix.nearestCentroid(ix.t.row(i, row))
			if assign[i] != c || it == 0 {
				assign[i] = c
				changed = true
			}
		}
		// Recompute centroids as (normalised) means.
		sums := make([]embedding.Vector, ix.nlist)
		counts := make([]int, ix.nlist)
		for c := range sums {
			sums[c] = make(embedding.Vector, ix.t.dim)
		}
		for i, c := range assign {
			counts[c]++
			for d, x := range ix.t.row(i, row) {
				sums[c][d] += x
			}
		}
		for c := range sums {
			if counts[c] == 0 {
				// Re-seed empty cluster with a random vector.
				ix.t.row(rng.Intn(n), sums[c])
			}
			embedding.Normalize(sums[c])
			ix.centroids[c] = sums[c]
		}
		if !changed {
			break
		}
	}
	ix.lists = make([][]int, ix.nlist)
	for i := 0; i < n; i++ {
		c := ix.nearestCentroid(ix.t.row(i, row))
		ix.lists[c] = append(ix.lists[c], i)
	}
	ix.built = true
	return nil
}

// nearestCentroid returns the index of the centroid with the highest inner
// product with v. Callers must hold at least the read lock.
func (ix *IVF) nearestCentroid(v embedding.Vector) int {
	best, bestScore := 0, -2.0
	for c, cent := range ix.centroids {
		s := embedding.Dot(v, cent)
		if s > bestScore {
			best, bestScore = c, s
		}
	}
	return best
}

// Search probes the NProbe nearest inverted lists and returns the top-k
// hits, best first. Search on an unbuilt index scans every row, as Flat
// does, so results are never silently empty.
func (ix *IVF) Search(query embedding.Vector, k int) []Result {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if !ix.built {
		res, _ := ix.t.topK(query, k, nil, len(ix.t.ids))
		return res
	}
	// Rank centroids by similarity, probe the best nprobe lists.
	type cscore struct {
		c int
		s float64
	}
	cs := make([]cscore, len(ix.centroids))
	for c, cent := range ix.centroids {
		cs[c] = cscore{c, embedding.Dot(query, cent)}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].s > cs[j].s })
	var cand []int
	for p := 0; p < ix.nprobe && p < len(cs); p++ {
		cand = append(cand, ix.lists[cs[p].c]...)
	}
	res, _ := ix.t.topK(query, k, cand, len(cand))
	return res
}

// Recall measures IVF recall@k against exact search for a query set: the
// mean fraction of exact top-k ids recovered by the approximate search.
// It is the figure of merit for the accuracy/latency trade-off bench.
func Recall(exact, approx Index, queries []embedding.Vector, k int) float64 {
	if len(queries) == 0 {
		return 0
	}
	var total float64
	for _, q := range queries {
		want := exact.Search(q, k)
		got := approx.Search(q, k)
		if len(want) == 0 {
			continue
		}
		gotSet := make(map[string]bool, len(got))
		for _, r := range got {
			gotSet[r.ID] = true
		}
		hit := 0
		for _, r := range want {
			if gotSet[r.ID] {
				hit++
			}
		}
		total += float64(hit) / float64(len(want))
	}
	return total / float64(len(queries))
}
