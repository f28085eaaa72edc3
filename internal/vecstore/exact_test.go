package vecstore_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"dio/internal/benchmark"
	"dio/internal/catalog"
	"dio/internal/core"
	"dio/internal/embedding"
	"dio/internal/vecstore"
)

// reference is the definition Search must reproduce bit for bit:
// embedding.Dot per row, a full sort by (score desc, id asc), the first k.
func reference(q embedding.Vector, ids []string, vecs []embedding.Vector, k int) []vecstore.Result {
	if k <= 0 || len(ids) == 0 {
		return nil
	}
	res := make([]vecstore.Result, len(ids))
	for i, v := range vecs {
		res[i] = vecstore.Result{ID: ids[i], Score: embedding.Dot(q, v)}
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].Score != res[j].Score {
			return res[i].Score > res[j].Score
		}
		return res[i].ID < res[j].ID
	})
	return res[:min(k, len(res))]
}

// sameResults reports whether two result lists have the same ids and the
// same score bits (== and reflect.DeepEqual would call +0 and -0 equal).
func sameResults(a, b []vecstore.Result) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// corpus is a reference copy of what was added to an index.
type corpus struct {
	ids  []string
	vecs []embedding.Vector
}

func (c *corpus) add(t *testing.T, ix vecstore.Index, id string, v embedding.Vector) {
	t.Helper()
	if err := ix.Add(id, v); err != nil {
		t.Fatal(err)
	}
	for i, have := range c.ids {
		if have == id {
			c.vecs[i] = v
			return
		}
	}
	c.ids, c.vecs = append(c.ids, id), append(c.vecs, v)
}

func (c *corpus) check(t *testing.T, ix vecstore.Index, name string, q embedding.Vector, k int) {
	t.Helper()
	got, want := ix.Search(q, k), reference(q, c.ids, c.vecs, k)
	if !sameResults(got, want) {
		t.Fatalf("%s, k=%d, n=%d:\n got %v\nwant %v", name, k, len(c.ids), got, want)
	}
}

// sparseVectors returns n unit vectors with roughly the given share of
// non-zero lanes, some of them negative zeros.
func sparseVectors(rng *rand.Rand, n, dim int, density float64) []embedding.Vector {
	out := make([]embedding.Vector, n)
	for i := range out {
		v := make(embedding.Vector, dim)
		for d := range v {
			switch r := rng.Float64(); {
			case r < density:
				v[d] = float32(rng.NormFloat64())
			case r < density+0.05:
				v[d] = float32(math.Copysign(0, -1))
			}
		}
		embedding.Normalize(v)
		out[i] = v
	}
	return out
}

// TestFlatSearchMatchesReferenceOnCatalog replays the questions the
// ask_cold workload draws from against the real catalog index.
func TestFlatSearchMatchesReferenceOnCatalog(t *testing.T) {
	cat := catalog.Generate()
	flat := vecstore.NewFlat(embedding.DefaultOptions().Dim)
	r, err := core.NewRetriever(cat, flat)
	if err != nil {
		t.Fatal(err)
	}
	model := r.EmbeddingModel()
	var c corpus
	for _, d := range cat.Documents() {
		c.ids, c.vecs = append(c.ids, d.ID), append(c.vecs, model.Embed(d.Text))
	}
	if flat.Len() != len(c.ids) {
		t.Fatalf("index holds %d rows, catalog has %d documents", flat.Len(), len(c.ids))
	}
	items, err := benchmark.Generate(cat, 4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	stride := 1
	if raceEnabled || testing.Short() {
		stride = 20 // the reference alone costs ~2 ms a question, ~10x that under -race
	}
	for i := 0; i < len(items); i += stride {
		c.check(t, flat, items[i].Question, model.Embed(items[i].Question), core.DefaultOptions().TopK)
	}
}

func TestSearchMatchesReferenceOnEdges(t *testing.T) {
	const dim = 24
	rng := rand.New(rand.NewSource(13))
	queries := sparseVectors(rng, 6, dim, 0.45)
	queries = append(queries, make(embedding.Vector, dim)) // all-zero query: every score is +0
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 33, 250} {
		indexes := map[string]vecstore.Index{
			"flat":        vecstore.NewFlat(dim),
			"ivf-unbuilt": vecstore.NewIVF(dim, 4, 4, 1),
			"ivf-built":   vecstore.NewIVF(dim, 4, 4, 1), // nprobe = nlist: every row is a candidate
		}
		for name, ix := range indexes {
			var c corpus
			vecs, order := sparseVectors(rng, n, dim, 0.6), rng.Perm(n)
			for i := range vecs {
				// Every third row duplicates an earlier one, so scores tie
				// and the id decides; ids are added out of order.
				v := vecs[i]
				if i%3 == 2 {
					v = vecs[i-2]
				}
				c.add(t, ix, fmt.Sprintf("v%03d", order[i]), v)
			}
			if ivf, ok := ix.(*vecstore.IVF); ok && name == "ivf-built" {
				if err := ivf.Build(5); err != nil {
					t.Fatal(err)
				}
			}
			for _, q := range queries {
				for _, k := range []int{0, 1, 3, n, n + 1} {
					c.check(t, ix, name, q, k)
				}
			}
			if name != "flat" {
				continue
			}
			// Add on an existing id replaces the row in place.
			c.add(t, ix, c.ids[n/2], queries[0])
			c.check(t, ix, "flat after replace", queries[0], 3)
			c.check(t, ix, "flat after replace", queries[1], n)
		}
	}
}

func TestSearchWrongDimensionQueryPanics(t *testing.T) {
	flat := vecstore.NewFlat(3)
	if got := flat.Search(embedding.Vector{1}, 1); got != nil {
		t.Fatalf("empty index returned %v", got)
	}
	if err := flat.Add("a", embedding.Vector{1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []embedding.Vector{{1, 0}, {1, 0, 0, 0}} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "does not match index dim") {
					t.Errorf("query of dim %d: recovered %q, want a dimension-mismatch panic", len(q), msg)
				}
			}()
			flat.Search(q, 1)
		}()
	}
}

func TestAddRejectsNonFinite(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(-1))
	flat, ivf := vecstore.NewFlat(2), vecstore.NewIVF(2, 1, 1, 1)
	for _, ix := range []vecstore.Index{flat, ivf} {
		for _, v := range []embedding.Vector{{nan, 0}, {0, inf}} {
			if err := ix.Add("bad", v); err == nil {
				t.Errorf("%T accepted %v", ix, v)
			}
		}
		if ix.Len() != 0 {
			t.Errorf("%T holds %d rows after rejected adds", ix, ix.Len())
		}
	}
	// A rejected replacement leaves the stored row alone.
	if err := flat.Add("a", embedding.Vector{1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := flat.Add("a", embedding.Vector{nan, 0}); err == nil {
		t.Error("replacement with NaN accepted")
	}
	if got := flat.Search(embedding.Vector{1, 0}, 1); len(got) != 1 || got[0].Score != 1 {
		t.Errorf("search after rejected replacement = %v", got)
	}
}

// TestFlatConcurrentAddSearch is for the race detector: searches share
// pooled scratch and read the matrix while adds append to and overwrite it.
func TestFlatConcurrentAddSearch(t *testing.T) {
	const dim, n = 16, 400
	rng := rand.New(rand.NewSource(5))
	vecs := sparseVectors(rng, n, dim, 0.5)
	flat := vecstore.NewFlat(dim)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, v := range vecs {
			if err := flat.Add(fmt.Sprintf("v%d", i%(n/2)), v); err != nil { // second half replaces
				t.Error(err)
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				res := flat.Search(vecs[(i+g)%n], 7)
				for j := 1; j < len(res); j++ {
					if res[j].Score > res[j-1].Score {
						t.Errorf("unsorted result %v", res)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if flat.Len() != n/2 {
		t.Fatalf("len = %d, want %d", flat.Len(), n/2)
	}
}

// TestFlatSearchAllocCeiling counts the two-pass search: the query has
// more lanes than the first pass scores, so both passes, the lane split
// and the rescoring all run on pooled scratch.
func TestFlatSearchAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	const dim = 192
	rng := rand.New(rand.NewSource(9))
	flat := vecstore.NewFlat(dim)
	for i, v := range sparseVectors(rng, 501, dim, 0.5) {
		if err := flat.Add(fmt.Sprintf("v%d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	q := sparseVectors(rng, 1, dim, 0.45)[0]
	if flat.Rescored(q, 29) == 0 {
		t.Fatal("the query did not take the two-pass search")
	}
	if allocs := testing.AllocsPerRun(200, func() { flat.Search(q, 29) }); allocs > 2 {
		t.Errorf("Flat.Search allocates %.1f times per call, ceiling 2", allocs)
	}
}

// coldQueries embeds the distinct questions among the first n generated at
// seed 1, the set the ask_cold workload cycles through.
func coldQueries(t *testing.T, cat *catalog.Database, model *embedding.Model, n int) []embedding.Vector {
	t.Helper()
	items, err := benchmark.Generate(cat, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	var out []embedding.Vector
	for _, it := range items {
		if !seen[it.Question] {
			seen[it.Question] = true
			out = append(out, model.Embed(it.Question))
		}
	}
	return out
}

// TestFlatSearchPrunesOnCatalog holds the bound to what it was measured
// to do: a bound that is merely valid would still pass every reference
// check while rescoring the whole catalog.
func TestFlatSearchPrunesOnCatalog(t *testing.T) {
	cat := catalog.Generate()
	flat := vecstore.NewFlat(embedding.DefaultOptions().Dim)
	r, err := core.NewRetriever(cat, flat)
	if err != nil {
		t.Fatal(err)
	}
	n := 1200
	if raceEnabled || testing.Short() {
		n = 120
	}
	queries := coldQueries(t, cat, r.EmbeddingModel(), n)
	total := 0
	for _, q := range queries {
		got := flat.Rescored(q, core.DefaultOptions().TopK)
		if got == 0 {
			t.Fatal("a cold question took the one-pass search")
		}
		total += got
	}
	mean := float64(total) / float64(len(queries))
	t.Logf("%d questions: %.0f of %d rows rescored on average", len(queries), mean, flat.Len())
	if mean > 0.10*float64(flat.Len()) {
		t.Errorf("second pass rescored %.0f of %d rows on average, want at most 10%%", mean, flat.Len())
	}
}

// denseVector returns a vector whose first nnz lanes are non-zero, of
// magnitudes spread over two decades so the heavy lanes are a real choice.
func denseVector(rng *rand.Rand, dim, nnz int) embedding.Vector {
	v := make(embedding.Vector, dim)
	for _, d := range rng.Perm(dim)[:nnz] {
		v[d] = float32(rng.NormFloat64() * math.Pow(10, -2*rng.Float64()))
	}
	return v
}

// TestPrunedSearchMatchesReference aims at the ways a norm bound can be
// wrong: rows that are not unit vectors, scores that all tie at the
// floor, queries either side of the heavy-lane count, a row whose norm
// changed after it was stored, and k at or past the corpus size.
func TestPrunedSearchMatchesReference(t *testing.T) {
	const dim, n = 96, 300
	rng := rand.New(rand.NewSource(21))
	var queries []embedding.Vector
	for _, nnz := range []int{31, 32, 33, 60, dim} {
		queries = append(queries, denseVector(rng, dim, nnz), denseVector(rng, dim, nnz))
	}
	// Equal magnitudes everywhere: which lanes are heavy is all tie-break.
	flat33 := make(embedding.Vector, dim)
	for d := 0; d < 33; d++ {
		flat33[d] = float32(1 - 2*(d%2))
	}
	queries = append(queries, flat33)

	build := func(name string) vecstore.Index {
		if name == "flat" {
			return vecstore.NewFlat(dim)
		}
		return vecstore.NewIVF(dim, 4, 4, 1) // nprobe = nlist: every row is a candidate
	}
	finish := func(t *testing.T, name string, ix vecstore.Index) {
		if name == "ivf-built" {
			if err := ix.(*vecstore.IVF).Build(5); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkAll := func(t *testing.T, c *corpus, ix vecstore.Index, name string) {
		for _, q := range queries {
			for _, k := range []int{1, 29, len(c.ids) - 1, len(c.ids), len(c.ids) + 5} {
				c.check(t, ix, name, q, k)
			}
		}
	}
	for _, name := range []string{"flat", "ivf-unbuilt", "ivf-built"} {
		t.Run(name+"/scaled rows", func(t *testing.T) {
			ix, c := build(name), &corpus{}
			for i, v := range sparseVectors(rng, n, dim, 0.6) {
				scale := float32(math.Pow(10, float64(i%7-3))) // 1e-3 … 1e3
				for d := range v {
					v[d] *= scale
				}
				c.add(t, ix, fmt.Sprintf("v%03d", i), v)
			}
			finish(t, name, ix)
			checkAll(t, c, ix, name)
		})
		t.Run(name+"/identical rows", func(t *testing.T) {
			ix, c := build(name), &corpus{}
			v := sparseVectors(rng, 1, dim, 0.8)[0]
			for _, i := range rng.Perm(n) {
				c.add(t, ix, fmt.Sprintf("v%03d", i), v)
			}
			finish(t, name, ix)
			checkAll(t, c, ix, name)
		})
	}
	t.Run("flat/tie across passes", func(t *testing.T) {
		// Every row scores exactly 0.5. The b rows earn it on a heavy lane
		// and lead the first pass; the a rows earn it on a light lane, are
		// only found by the second, and win the tie on id.
		q := make(embedding.Vector, dim)
		for d := 0; d < 40; d++ {
			q[d] = 1
			if d >= 32 {
				q[d] = 0.25
			}
		}
		ix, c := vecstore.NewFlat(dim), &corpus{}
		for i := 0; i < 5; i++ {
			a, b := make(embedding.Vector, dim), make(embedding.Vector, dim)
			a[32+i], b[i] = 2, 0.5
			c.add(t, ix, fmt.Sprintf("b%d", i), b)
			c.add(t, ix, fmt.Sprintf("a%d", i), a)
		}
		for _, k := range []int{1, 5, 7, 10} {
			c.check(t, ix, "tie", q, k)
		}
	})
	t.Run("flat/replaced row grew", func(t *testing.T) {
		ix, c := vecstore.NewFlat(dim), &corpus{}
		for i, v := range sparseVectors(rng, n, dim, 0.6) {
			if i == n/2 {
				clear(v) // norm 0: every bound on it is 0
			}
			c.add(t, ix, fmt.Sprintf("v%03d", i), v)
		}
		for _, q := range queries {
			// The new row is the best match there is, and all of that on
			// the query's smaller lanes: the first pass sees 0, so a norm
			// left at 0 would prune it.
			order := rng.Perm(dim)
			sort.SliceStable(order, func(i, j int) bool {
				return math.Abs(float64(q[order[i]])) > math.Abs(float64(q[order[j]]))
			})
			grown := make(embedding.Vector, dim)
			for _, d := range order[32:] {
				grown[d] = 50 * q[d]
			}
			c.add(t, ix, c.ids[n/2], grown)
			c.check(t, ix, "after replace", q, 1)
			c.check(t, ix, "after replace", q, 29)
		}
	})
}
