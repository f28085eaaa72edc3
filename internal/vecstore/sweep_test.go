package vecstore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dio/internal/catalog"
	"dio/internal/embedding"
)

// naiveSweep is the definition sweepGo and sweep4 must reproduce: for each
// row, from its current sum, one product per lane in the order given.
func naiveSweep(acc []float64, q8 []int8, stride int, lanes []lane) {
	for r := range acc {
		s := acc[r]
		for _, l := range lanes {
			s += l.v * float64(q8[int(l.i)*stride+r])
		}
		acc[r] = s
	}
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestSweepMatchesGoLoop holds the packed kernel to the Go loop bit for
// bit, and the Go loop to the naive sum: int8 lanes at the extremes, row
// counts either side of a group of four, lane counts that leave a short
// group for the Go loop to pad, and lane values from 1e-30 to 1e30. Off
// amd64, or on a CPU without AVX, only the Go loop is checked.
func TestSweepMatchesGoLoop(t *testing.T) {
	if !haveKernel {
		t.Log("no kernel on this platform: checking the Go loop alone")
	}
	const dim = 40
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 3, 4, 5, 15, 16, 17, 31, 4*37 + 3} {
		stride := n + rng.Intn(9)
		q8 := make([]int8, dim*stride)
		for i := range q8 {
			switch rng.Intn(8) {
			case 0:
				q8[i] = -128
			case 1:
				q8[i] = 127
			case 2:
				q8[i] = -127
			default:
				q8[i] = int8(rng.Intn(256) - 128)
			}
		}
		for _, nl := range []int{1, 2, 3, 4, 5, 7, 32, dim} {
			lanes := make([]lane, 0, nl)
			for _, d := range rng.Perm(dim)[:nl] {
				v := float32(math.Pow(10, 60*rng.Float64()-30))
				if rng.Intn(2) == 0 {
					v = -v
				}
				lanes = append(lanes, lane{int32(d), float64(v)})
			}
			start := make([]float64, n)
			for r := range start {
				if r%3 != 0 { // every third row starts at +0, as topK's do
					start[r] = rng.NormFloat64() * math.Pow(10, 40*rng.Float64()-20)
				}
			}
			want := append([]float64(nil), start...)
			naiveSweep(want, q8, stride, lanes)
			got := append([]float64(nil), start...)
			sweepGo(got, q8, stride, lanes, 0)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("n=%d, %d lanes: Go loop row %d = %v, naive sum %v", n, nl, i, got[i], want[i])
			}
			got = append(got[:0], start...)
			done := sweep4(got, q8, stride, lanes)
			if haveKernel && done != n&^3 {
				t.Fatalf("n=%d, %d lanes: the kernel did %d rows, want %d", n, nl, done, n&^3)
			}
			sweepGo(got, q8, stride, lanes, done)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("n=%d, %d lanes: kernel row %d = %v, naive sum %v", n, nl, i, got[i], want[i])
			}
		}
	}
}

// checkQuantised requires every component of every row of tb to lie
// within qerr of scale·v. The difference is computed with one rounding
// (FMA), and the factor 1+2⁻⁵² undoes it.
func checkQuantised(t *testing.T, name string, tb *table) {
	t.Helper()
	for i, row := range tb.rows[:len(tb.ids)] {
		for l, x := range row {
			v := tb.q8[l*tb.stride+i]
			d := math.Abs(math.FMA(tb.scale[i], float64(v), -float64(x)))
			if d*(1+0x1p-52) > tb.qerr[i] {
				t.Fatalf("%s: row %d lane %d: x=%g, scale·v = %g·%d, error %g above qerr %g",
					name, i, l, x, tb.scale[i], v, d, tb.qerr[i])
			}
		}
	}
}

// TestQuantisationErrorBound holds set's measured qerr to what pass 1
// assumes of it, on the catalog and on rows built to stress it.
func TestQuantisationErrorBound(t *testing.T) {
	docs := catalog.Generate().Documents()
	corpus := make([]string, len(docs))
	for i, d := range docs {
		corpus[i] = d.Text
	}
	model, vecs := embedding.Train(corpus, embedding.DomainLexicon(), embedding.DefaultOptions())
	f := NewFlat(model.Dim())
	for i, d := range docs {
		if err := f.Add(d.ID, vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	checkQuantised(t, "catalog", &f.t)

	const dim = 24
	rng := rand.New(rand.NewSource(17))
	f = NewFlat(dim)
	add := func(v embedding.Vector) {
		if err := f.Add(fmt.Sprintf("v%03d", f.Len()), v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 70; i++ { // rows scaled 1e-3 … 1e3
		v := make(embedding.Vector, dim)
		for d := range v {
			v[d] = float32(rng.NormFloat64() * math.Pow(10, float64(i%7-3)))
		}
		add(v)
	}
	huge := make(embedding.Vector, dim) // one lane dwarfs the rest
	for d := range huge {
		huge[d] = float32(rng.NormFloat64())
	}
	huge[5] = 3e38
	add(huge)
	sub := make(embedding.Vector, dim) // float32 subnormals and a normal
	for d := range sub {
		sub[d] = math.Float32frombits(uint32(rng.Intn(1 << 23)))
	}
	sub[0] = -math.SmallestNonzeroFloat32
	sub[1] = 1e-38
	add(sub)
	add(make(embedding.Vector, dim)) // all zero
	checkQuantised(t, "synthetic", &f.t)
	if z := len(f.t.ids) - 1; f.t.scale[z] != 0 || f.t.qerr[z] != 0 {
		t.Fatalf("zero row: scale %g, qerr %g, want 0 and 0", f.t.scale[z], f.t.qerr[z])
	}
	// A replaced row is quantised afresh: the all-zero row becomes the huge
	// one, and the huge one a row of subnormals.
	if err := f.Add(fmt.Sprintf("v%03d", len(f.t.ids)-1), huge); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(fmt.Sprintf("v%03d", len(f.t.ids)-3), sub); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 73 {
		t.Fatalf("%d rows after two replacements, want 73", f.Len())
	}
	checkQuantised(t, "replaced", &f.t)
}
