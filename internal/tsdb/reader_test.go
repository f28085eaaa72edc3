package tsdb

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// DecodeViews decodes the snapshot of every view SelectBatch returned into
// its Samples, clamped to the view's hint, all into one slab: the whole
// decode that the tests hold every Reader read to. It takes no lock:
// snapshots share nothing that appends or truncations change.
func DecodeViews(views []SeriesView) {
	n := 0
	for _, v := range views {
		for _, c := range v.chunks {
			n += c.count
		}
	}
	slab := make([]Sample, 0, n)
	for i := range views {
		v := &views[i]
		from := len(slab)
		for _, c := range v.chunks {
			slab = appendDecoded(slab, c, v.minT, v.maxT)
		}
		v.Samples = slab[from:len(slab):len(slab)]
	}
}

// TestReaderSnapshotStable takes a range selection and reads it through
// Readers while the series changes under them: appends until the head
// seals, appends into the new head, and a retention truncation that cuts
// inside the first chunk. The readers must yield exactly the samples the
// series held when SelectBatch returned, and DecodeViews on the same
// snapshot must agree. One reader runs alongside the writer, with no
// synchronisation, so under -race any read of memory the writer changes
// fails; a second runs once the writer is done, so it reads after every
// change for certain.
func TestReaderSnapshotStable(t *testing.T) {
	for _, span := range []int64{0, 10_000} { // buffers that grow on the heap, and that compact
		t.Run(fmt.Sprintf("span=%d", span), func(t *testing.T) {
			db := New()
			ls := FromMap(map[string]string{"__name__": "m"})
			const n = 2*chunkCapacity + 41 // two sealed chunks and a head of 41
			for i := 0; i < n; i++ {
				if err := db.Append(ls, int64(i)*1000, float64(i)*1.5); err != nil {
					t.Fatal(err)
				}
			}
			ms := []*Matcher{NameMatcher("m")}
			const minT = 30_000
			views := db.SelectBatch([]SelectHint{{Matchers: ms, MinT: minT, MaxT: math.MaxInt64}})[0]
			eager := slices.Clone(views)
			if head, live := views[0].chunks[len(views[0].chunks)-1].data, db.series[ls.Key()].head; &head[0] == &live.w.b[0] || live.w.free == 0 {
				t.Fatalf("the snapshot shares the live head's bytes, or the head ends on a full byte (free %d)", live.w.free)
			}
			want := db.SelectRange(ms, minT-1, math.MaxInt64)[0].Samples
			if len(views) != 1 || len(want) != n-30 {
				t.Fatalf("selected %d views, %d samples", len(views), len(want))
			}

			// read steps end by 7 s through upTo, collecting r's 10 s
			// windows and checking its latest sample.
			read := func(r *Reader, got []Sample, end, upTo int64) ([]Sample, int64) {
				for ; end < upTo; end += 7000 {
					for _, s := range r.Window(end-10_000+1, end) {
						if len(got) == 0 || s.T > got[len(got)-1].T {
							got = append(got, s)
						}
					}
				}
				return got, end
			}
			latest := func(r *Reader, end int64) {
				i, _ := slices.BinarySearchFunc(want, end+1, func(s Sample, t int64) int { return int(s.T - t) })
				s, ok := r.Latest(end-5000, end)
				if wantOK := i > 0 && want[i-1].T >= end-5000; ok != wantOK || (ok && s != want[i-1]) {
					t.Errorf("Latest at %d = %v, %v; want %v", end, s, ok, want[i-1])
				}
			}
			during, after := &NewReaders(views, span)[0], &NewReaders(views, span)[0]
			got, end := read(during, nil, minT, 100_000)
			before := slices.Clone(got)

			done := make(chan struct{})
			go func() {
				defer close(done)
				tt := int64(n)
				for ; tt < chunkCapacity*3; tt++ { // fill the head until it seals
					if err := db.Append(ls, tt*1000, -1); err != nil {
						t.Error(err)
					}
				}
				for end := tt + 10; tt < end; tt++ { // into the new head
					if err := db.Append(ls, tt*1000, -2); err != nil {
						t.Error(err)
					}
				}
				db.Truncate(60_500)
			}()
			const upTo = (chunkCapacity*3 + 20) * 1000
			got, _ = read(during, got, end, upTo)
			<-done
			gotAfter, _ := read(after, nil, minT, upTo)
			if !slices.Equal(gotAfter, want) || !slices.Equal(gotAfter[:len(before)], before) {
				t.Fatalf("reader after the writer yielded %d samples, want the %d present at selection", len(gotAfter), len(want))
			}
			for r, end := &NewReaders(views, span)[0], int64(minT); end < upTo; end += 7000 {
				latest(r, end)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("reader yielded %d samples, want the %d present at selection", len(got), len(want))
			}
			DecodeViews(eager)
			if !slices.Equal(eager[0].Samples, want) {
				t.Fatalf("DecodeViews yielded %d samples, want the %d present at selection", len(eager[0].Samples), len(want))
			}
		})
	}
}

// TestReaderReadsMatchDecode walks readers over every floor from just
// before the first sample to past the last, with windows of several
// widths, over three sealed chunks and a head and with floors landing
// exactly on chunk edges. A reader that steps through the floors, and a
// fresh one whose first read jumps to the floor (skipping chunks), must
// each return exactly the decoded samples in [floor, end], and Latest the
// newest of them.
func TestReaderReadsMatchDecode(t *testing.T) {
	db := New()
	ls := FromMap(map[string]string{"__name__": "m"})
	var all []Sample
	for i, tt := 0, int64(0); i < 3*chunkCapacity+17; i++ {
		tt += int64(1000 + 500*(i%3))
		all = append(all, Sample{T: tt, V: float64(i % 7)})
		if err := db.Append(ls, tt, float64(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	views := db.SelectBatch([]SelectHint{NoClamp([]*Matcher{NameMatcher("m")})})[0]
	last := all[len(all)-1].T
	for _, width := range []int64{0, 999, 1500, 20_000} {
		win, lat := &NewReaders(views, width)[0], &NewReaders(views, 0)[0]
		for floor := int64(0); floor <= last+1; floor += 250 {
			end := floor + width
			var want []Sample
			for _, s := range all {
				if s.T >= floor && s.T <= end {
					want = append(want, s)
				}
			}
			if got := win.Window(floor, end); !slices.Equal(got, want) {
				t.Fatalf("width %d: Window(%d, %d) = %v, want %v", width, floor, end, got, want)
			}
			if got := NewReaders(views, width)[0].Window(floor, end); !slices.Equal(got, want) {
				t.Fatalf("width %d: a fresh Window(%d, %d) = %v, want %v", width, floor, end, got, want)
			}
			s, ok := lat.Latest(floor, end)
			if ok != (len(want) > 0) || (ok && s != want[len(want)-1]) {
				t.Fatalf("width %d: Latest(%d, %d) = %v, %v; want %v", width, floor, end, s, ok, want)
			}
		}
	}
}

// fuzzSamples turns raw into strictly increasing samples, 3 bytes each:
// a gap that reaches every dod bucket, and a value that repeats, steps,
// turns negative, NaN or infinite, or takes arbitrary bits.
func fuzzSamples(raw []byte) []Sample {
	raw = raw[:min(len(raw), 3*900)] // 900 gaps of at most 2^53 fit in an int64
	var out []Sample
	t, v := int64(0), 0.0
	for ; len(raw) >= 3; raw = raw[3:] {
		gap := 1 + int64(raw[1])
		if raw[0] >= 240 {
			gap <<= 3 * int64(raw[0]-240)
		} else {
			gap += int64(raw[0]) * 1000
		}
		t += gap
		switch raw[2] % 8 {
		case 0: // repeat
		case 1:
			v = math.NaN()
		case 2:
			v = -v
		case 3:
			v = math.Inf(1)
		case 4:
			v = math.Float64frombits(uint64(raw[1])<<56 | uint64(raw[2])<<28 | uint64(raw[0]))
		default:
			v += float64(raw[1]) * 0.3
		}
		out = append(out, Sample{T: t, V: v})
	}
	return out
}

// FuzzReaderMatchesDecode appends arbitrary samples to a series, enough
// for sealed chunks and an open head, selects it under a clamp, and
// reads the snapshot with a Reader through a non-decreasing sequence of
// Window reads and, on a second Reader, Latest reads, each over a buffer
// of arbitrary room. Every read must equal the matching slice of
// DecodeViews' decode of the same snapshot, bit for bit.
func FuzzReaderMatchesDecode(f *testing.F) {
	var long []byte
	for i := 0; i < 3*chunkCapacity+17; i++ {
		long = append(long, byte(i*7%251), byte(i*13), byte(i))
	}
	var reads []byte // 60 reads that sweep all of long's samples
	for i := 0; i < 60; i++ {
		reads = append(reads, byte(i%5+5), byte(i), byte(i*11))
	}
	f.Add(long, reads, uint8(0), uint8(0), uint8(255), uint8(0))
	f.Add(long, reads, uint8(10), uint8(3), uint8(200), uint8(60))
	f.Add(long[:300], reads[:30], uint8(0), uint8(40), uint8(90), uint8(255))
	f.Add([]byte{250, 1, 4, 255, 2, 1, 0, 0, 0}, []byte{0, 0, 0, 1, 1, 1}, uint8(0), uint8(0), uint8(2), uint8(1))
	f.Fuzz(checkReaderReads)
}

// checkReaderReads is FuzzReaderMatchesDecode's check of one input.
func checkReaderReads(t *testing.T, raw, rawReads []byte, spanShift, lo, hi, gap uint8) {
	all := fuzzSamples(raw)
	if len(all) == 0 {
		return
	}
	db := New()
	ls := FromMap(map[string]string{"__name__": "m"})
	for _, s := range all {
		if err := db.Append(ls, s.T, s.V); err != nil {
			t.Fatal(err)
		}
	}
	// The clamp: from just before sample lo to just after sample hi,
	// or unbounded on a side whose index is past the data.
	hint := NoClamp([]*Matcher{NameMatcher("m")})
	if i := int(lo); i < len(all) {
		hint.MinT = all[i].T - int64(gap%3)
	}
	if i := int(hi); i < len(all) {
		hint.MaxT = all[i].T + int64(gap%3)
	}
	views := db.SelectBatch([]SelectHint{hint})[0]
	eager := slices.Clone(views)
	DecodeViews(eager)
	var decoded []Sample
	if len(eager) == 1 {
		decoded = eager[0].Samples
	}
	if len(views) == 0 {
		return
	}
	span := int64(1) << (spanShift % 48)
	win, lat := &NewReaders(views, span)[0], &NewReaders(views, 0)[0]
	floor, end, idx := all[0].T-1, int64(math.MinInt64), 0
	for ; len(rawReads) >= 3; rawReads = rawReads[3:] {
		idx = min(idx+int(rawReads[0]%16), len(all)-1)
		floor = max(floor, all[idx].T+int64(rawReads[1]%3)-1)
		end = max(end, all[min(idx+int(rawReads[2]%40), len(all)-1)].T+int64(rawReads[2]/40%3)-1)
		var want []Sample
		for _, s := range decoded {
			if s.T >= floor && s.T <= end {
				want = append(want, s)
			}
		}
		got := win.Window(floor, end)
		if !sameBits(got, want) {
			t.Fatalf("Window(%d, %d) = %v, want %v", floor, end, got, want)
		}
		if !sameBits(win.Last(), want) {
			t.Fatalf("Last after Window(%d, %d) = %v, want %v", floor, end, win.Last(), want)
		}
		s, ok := lat.Latest(floor, end)
		if ok != (len(want) > 0) || (ok && !sameBits([]Sample{s}, want[len(want)-1:])) {
			t.Fatalf("Latest(%d, %d) = %v, %v; want the last of %v", floor, end, s, ok, want)
		}
	}
}

// sameBits reports whether a and b hold the same samples, bit for bit.
func sameBits(a, b []Sample) bool {
	return slices.EqualFunc(a, b, func(x, y Sample) bool {
		return x.T == y.T && math.Float64bits(x.V) == math.Float64bits(y.V)
	})
}
