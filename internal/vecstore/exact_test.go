package vecstore_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
	if v, _ := flat.Get("a"); !reflect.DeepEqual(v, embedding.Vector{1, 0}) {
		t.Errorf("row after rejected replacement = %v", v)
	}
}

// oldFlatState has the field shape the pre-matrix Flat wrote.
type oldFlatState struct {
	Dim  int
	IDs  []string
	Vecs [][]float32
}

func encodeState(t *testing.T, st oldFlatState) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestFlatSaveLoadRoundTrip(t *testing.T) {
	const dim = 10
	rng := rand.New(rand.NewSource(3))
	flat := vecstore.NewFlat(dim)
	var c corpus
	old := oldFlatState{Dim: dim}
	for i, v := range sparseVectors(rng, 9, dim, 0.5) {
		id := fmt.Sprintf("v%d", i)
		c.add(t, flat, id, v)
		old.IDs, old.Vecs = append(old.IDs, id), append(old.Vecs, v)
	}
	var saved bytes.Buffer
	if err := flat.Save(&saved); err != nil {
		t.Fatal(err)
	}
	for name, buf := range map[string]*bytes.Buffer{"saved": &saved, "old layout": encodeState(t, old)} {
		got, err := vecstore.LoadFlat(buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Len() != flat.Len() || got.Dim() != dim {
			t.Fatalf("%s: loaded len %d dim %d", name, got.Len(), got.Dim())
		}
		for i, id := range c.ids {
			if v, ok := got.Get(id); !ok || !reflect.DeepEqual(v, c.vecs[i]) {
				t.Fatalf("%s: Get(%s) = %v, %v", name, id, v, ok)
			}
		}
		for _, q := range sparseVectors(rng, 4, dim, 0.5) {
			c.check(t, got, name, q, 4)
		}
	}
}

func TestLoadFlatRejectsCorruptState(t *testing.T) {
	nan := float32(math.NaN())
	for name, st := range map[string]oldFlatState{
		"count mismatch": {Dim: 2, IDs: []string{"a", "b"}, Vecs: [][]float32{{1, 0}}},
		"short vector":   {Dim: 2, IDs: []string{"a", "b"}, Vecs: [][]float32{{1, 0}, {1}}},
		"long vector":    {Dim: 2, IDs: []string{"a"}, Vecs: [][]float32{{1, 0, 0}}},
		"duplicate id":   {Dim: 2, IDs: []string{"a", "a"}, Vecs: [][]float32{{1, 0}, {0, 1}}},
		"NaN component":  {Dim: 2, IDs: []string{"a"}, Vecs: [][]float32{{nan, 0}}},
		"negative dim":   {Dim: -1},
	} {
		_, err := vecstore.LoadFlat(encodeState(t, st))
		if err == nil || !strings.Contains(err.Error(), "corrupt flat index state") {
			t.Errorf("%s: err = %v, want corrupt flat index state", name, err)
		}
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

func TestFlatSearchAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	const dim = 64
	rng := rand.New(rand.NewSource(9))
	flat := vecstore.NewFlat(dim)
	for i, v := range sparseVectors(rng, 501, dim, 0.5) {
		if err := flat.Add(fmt.Sprintf("v%d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	q := sparseVectors(rng, 1, dim, 0.45)[0]
	if allocs := testing.AllocsPerRun(200, func() { flat.Search(q, 29) }); allocs > 2 {
		t.Errorf("Flat.Search allocates %.1f times per call, ceiling 2", allocs)
	}
}
