package vecstore

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dio/internal/embedding"
)

// randomVectors returns n unit vectors of the given dim.
func randomVectors(n, dim int, seed int64) []embedding.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]embedding.Vector, n)
	for i := range out {
		v := make(embedding.Vector, dim)
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		embedding.Normalize(v)
		out[i] = v
	}
	return out
}

func TestFlatAddSearch(t *testing.T) {
	f := NewFlat(4)
	vecs := randomVectors(10, 4, 1)
	for i, v := range vecs {
		if err := f.Add(fmt.Sprintf("v%d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	if f.Len() != 10 {
		t.Fatalf("len = %d, want 10", f.Len())
	}
	// Searching with a stored vector must return it first with score ≈1.
	res := f.Search(vecs[3], 3)
	if len(res) != 3 || res[0].ID != "v3" {
		t.Fatalf("search result = %+v", res)
	}
	if res[0].Score < 0.999 {
		t.Errorf("self-similarity = %g", res[0].Score)
	}
	// Scores are non-increasing.
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Errorf("results not sorted: %+v", res)
		}
	}
}

func TestFlatReplace(t *testing.T) {
	f := NewFlat(2)
	must(t, f.Add("a", embedding.Vector{1, 0}))
	must(t, f.Add("a", embedding.Vector{0, 1}))
	if f.Len() != 1 {
		t.Fatalf("len = %d after replace, want 1", f.Len())
	}
	if res := f.Search(embedding.Vector{0, 1}, 1); len(res) != 1 || res[0].Score != 1 {
		t.Fatalf("search after replace = %v", res)
	}
}

func TestFlatDimMismatch(t *testing.T) {
	f := NewFlat(3)
	if err := f.Add("x", embedding.Vector{1, 2}); err == nil {
		t.Fatal("expected dim mismatch error")
	}
}

func TestFlatSearchEdgeCases(t *testing.T) {
	f := NewFlat(2)
	if res := f.Search(embedding.Vector{1, 0}, 5); res != nil {
		t.Errorf("search on empty index = %v", res)
	}
	must(t, f.Add("a", embedding.Vector{1, 0}))
	if res := f.Search(embedding.Vector{1, 0}, 0); res != nil {
		t.Errorf("k=0 search = %v", res)
	}
	if res := f.Search(embedding.Vector{1, 0}, 10); len(res) != 1 {
		t.Errorf("k>len search returned %d results", len(res))
	}
}

func TestIVFBuildAndSearch(t *testing.T) {
	dim := 16
	vecs := randomVectors(500, dim, 3)
	ivf := NewIVF(dim, 16, 4, 7)
	exact := NewFlat(dim)
	for i, v := range vecs {
		id := fmt.Sprintf("v%d", i)
		must(t, ivf.Add(id, v))
		must(t, exact.Add(id, v))
	}
	if ivf.built {
		t.Fatal("index should not be built yet")
	}
	// Before Build, search falls back to exact.
	pre := ivf.Search(vecs[0], 5)
	if pre[0].ID != "v0" {
		t.Fatalf("pre-build search = %+v", pre[0])
	}
	if err := ivf.Build(10); err != nil {
		t.Fatal(err)
	}
	if !ivf.built {
		t.Fatal("index should be built")
	}
	queries := randomVectors(50, dim, 4)
	r := Recall(exact, ivf, queries, 10)
	if r < 0.5 {
		t.Errorf("recall@10 = %g, want ≥ 0.5 with nprobe=4/16", r)
	}
	// More probes must not reduce recall below the fewer-probe setting
	// substantially (sanity of the accuracy/latency trade-off).
	wide := NewIVF(dim, 16, 16, 7)
	for i, v := range vecs {
		must(t, wide.Add(fmt.Sprintf("v%d", i), v))
	}
	must(t, wide.Build(10))
	if rw := Recall(exact, wide, queries, 10); rw < 0.999 {
		t.Errorf("nprobe=nlist recall = %g, want ≈1", rw)
	}
}

func TestIVFDuplicateID(t *testing.T) {
	ivf := NewIVF(2, 2, 1, 1)
	must(t, ivf.Add("a", embedding.Vector{1, 0}))
	if err := ivf.Add("a", embedding.Vector{0, 1}); err == nil {
		t.Fatal("expected duplicate id error")
	}
}

func TestIVFEmptyBuild(t *testing.T) {
	ivf := NewIVF(2, 2, 1, 1)
	if err := ivf.Build(5); err == nil {
		t.Fatal("expected error building empty index")
	}
}

func TestIVFAddAfterBuild(t *testing.T) {
	dim := 8
	vecs := randomVectors(50, dim, 5)
	ivf := NewIVF(dim, 4, 4, 9)
	for i, v := range vecs {
		must(t, ivf.Add(fmt.Sprintf("v%d", i), v))
	}
	must(t, ivf.Build(5))
	extra := randomVectors(1, dim, 6)[0]
	must(t, ivf.Add("extra", extra))
	res := ivf.Search(extra, 1)
	if len(res) != 1 || res[0].ID != "extra" {
		t.Fatalf("post-build add not searchable: %+v", res)
	}
}

func TestSearchResultsSortedProperty(t *testing.T) {
	f := NewFlat(4)
	vecs := randomVectors(64, 4, 11)
	for i, v := range vecs {
		must(t, f.Add(fmt.Sprintf("v%d", i), v))
	}
	prop := func(seed int64, k uint8) bool {
		q := randomVectors(1, 4, seed)[0]
		res := f.Search(q, int(k%32))
		if len(res) > int(k%32) {
			return false
		}
		for i := 1; i < len(res); i++ {
			if res[i].Score > res[i-1].Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
