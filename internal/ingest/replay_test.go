package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dio/internal/tsdb"
)

// rawSegment hand-writes a WAL segment in the documented format, with
// whatever refs a test chooses.
type rawSegment struct{ buf []byte }

func newRawSegment() *rawSegment {
	return &rawSegment{buf: []byte(walMagic)}
}

func (b *rawSegment) record(payload []byte) {
	b.buf = binary.LittleEndian.AppendUint32(b.buf, uint32(len(payload)))
	b.buf = binary.LittleEndian.AppendUint32(b.buf, crc32.ChecksumIEEE(payload))
	b.buf = append(b.buf, payload...)
}

func (b *rawSegment) series(ref uint64, ls tsdb.Labels) {
	p := binary.AppendUvarint([]byte{recSeries}, ref)
	p = binary.AppendUvarint(p, uint64(len(ls)))
	for _, l := range ls {
		p = binary.AppendUvarint(p, uint64(len(l.Name)))
		p = append(p, l.Name...)
		p = binary.AppendUvarint(p, uint64(len(l.Value)))
		p = append(p, l.Value...)
	}
	b.record(p)
}

// walSample is one sample of a samples record, addressed by WAL ref.
type walSample struct {
	ref uint64
	t   int64
	v   float64
}

func (b *rawSegment) samples(smps ...walSample) {
	p := binary.AppendUvarint([]byte{recSamples}, uint64(len(smps)))
	prevT := int64(0)
	for _, s := range smps {
		p = binary.AppendUvarint(p, s.ref)
		p = binary.AppendUvarint(p, zigzag(s.t-prevT))
		prevT = s.t
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(s.v))
	}
	b.record(p)
}

func writeSegments(t testing.TB, dir string, segs ...[]byte) {
	t.Helper()
	for i, raw := range segs {
		if err := os.WriteFile(filepath.Join(dir, segmentName(i+1)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplaySparseWALRefs replays a segment whose WAL refs are ones no
// writer in this repository assigns — sparse, out of order, one of them
// 1<<40, and one rebound to other labels as a restarted writer would — and
// requires the store that appending the same samples by labels builds.
func TestReplaySparseWALRefs(t *testing.T) {
	a := tsdb.FromMap(map[string]string{"__name__": "m", "instance": "a"})
	b := tsdb.FromMap(map[string]string{"__name__": "m", "instance": "b"})
	c := tsdb.FromMap(map[string]string{"__name__": "other"})
	d := tsdb.FromMap(map[string]string{"__name__": "m", "instance": "d"})
	seg := newRawSegment()
	seg.series(7, a)
	seg.series(3, b)
	seg.series(1<<40, c)
	seg.samples(walSample{7, 1000, 1}, walSample{3, 1000, 2}, walSample{1 << 40, 1500, 3}, walSample{7, 2000, 4})
	// An identical re-append, an out-of-order sample and a conflicting
	// duplicate: the policy keeps the first and skips the other two.
	seg.samples(walSample{3, 2000, 5}, walSample{7, 2000, 4}, walSample{7, 1500, 9}, walSample{3, 2000, 6})
	seg.series(3, d)
	seg.samples(walSample{3, 3000, 7}, walSample{7, 3000, 8})

	dir := t.TempDir()
	writeSegments(t, dir, seg.buf)
	got := tsdb.New()
	st, err := ReplayWAL(dir, 0, got)
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples != 10 || st.Records != 7 || st.TailTruncated {
		t.Fatalf("stats = %+v", st)
	}

	want := tsdb.New()
	for _, s := range []struct {
		ls   tsdb.Labels
		t    int64
		v    float64
		skip bool
	}{
		{a, 1000, 1, false}, {b, 1000, 2, false}, {c, 1500, 3, false}, {a, 2000, 4, false},
		{b, 2000, 5, false}, {a, 2000, 4, false}, {a, 1500, 9, true}, {b, 2000, 6, true},
		{d, 3000, 7, false}, {a, 3000, 8, false},
	} {
		if err := want.Append(s.ls, s.t, s.v); (err != nil) != s.skip {
			t.Fatalf("label path append %s@%d: %v", s.ls, s.t, err)
		}
	}
	identicalStores(t, got, want)
}

// TestReplayHostileRefDoesNotAllocate replays a series record with the
// largest encodable WAL ref: replay must cost what any other ref costs.
func TestReplayHostileRefDoesNotAllocate(t *testing.T) {
	seg := newRawSegment()
	seg.series(math.MaxUint64, tsdb.FromMap(map[string]string{"__name__": "m"}))
	seg.samples(walSample{math.MaxUint64, 1, 1})
	dir := t.TempDir()
	writeSegments(t, dir, seg.buf)

	db := tsdb.New()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReplayWAL(dir, 0, db); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("replaying one hostile ref allocated %d bytes", grew)
	}
	if db.NumSamples() != 1 {
		t.Fatalf("replayed %d samples, want 1", db.NumSamples())
	}
}

// refreshCRCs rewrites the CRC of every whole record in a segment, so the
// fuzzer's mutations reach record parsing instead of stopping at the
// checksum.
func refreshCRCs(raw []byte) {
	pos := len(walMagic)
	for pos+8 <= len(raw) {
		n := uint64(binary.LittleEndian.Uint32(raw[pos:]))
		if uint64(len(raw)-pos-8) < n {
			return
		}
		binary.LittleEndian.PutUint32(raw[pos+4:], crc32.ChecksumIEEE(raw[pos+8:pos+8+int(n)]))
		pos += 8 + int(n)
	}
}

// snapshotBytes is a store's chunked snapshot: equal bytes mean equal
// stores, NaN values included.
func snapshotBytes(t *testing.T, db *tsdb.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.SnapshotChunked(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReplaySegment replays arbitrary bytes as a WAL segment, once followed
// by an intact segment and once as the final segment. It must never panic.
// As a non-final segment it replays or fails with ErrWALCorrupt; as the
// final one it replays after cutting off any damaged tail, and the
// repaired file then replays cleanly to the same store. Damage is judged
// the same way in both positions.
func FuzzReplaySegment(f *testing.F) {
	dir := f.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		batch := []TimeSeries{
			mkSeries("m", map[string]string{"instance": "a"}, tsdb.Sample{T: int64(i), V: float64(i)}),
			mkSeries("n", nil, tsdb.Sample{T: int64(i), V: math.NaN()}, tsdb.Sample{T: int64(i) + 1, V: -1}),
		}
		if _, err := w.Log(batch); err != nil {
			f.Fatal(err)
		}
	}
	seg := w.currentSegment()
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	logged, err := os.ReadFile(filepath.Join(dir, segmentName(seg)))
	if err != nil {
		f.Fatal(err)
	}
	sparse := newRawSegment()
	sparse.series(1<<40, tsdb.FromMap(map[string]string{"__name__": "m"}))
	sparse.samples(walSample{1 << 40, 5, 1}, walSample{1 << 40, 4, 2})
	for _, s := range [][]byte{logged, logged[:len(logged)-5], sparse.buf, []byte(walMagic), nil} {
		f.Add(s, false)
		f.Add(s, true)
	}

	f.Fuzz(func(t *testing.T, raw []byte, fixCRC bool) {
		raw = bytes.Clone(raw)
		if fixCRC {
			refreshCRCs(raw)
		}
		midDir, lastDir := t.TempDir(), t.TempDir()
		writeSegments(t, midDir, raw, []byte(walMagic))
		writeSegments(t, lastDir, raw)

		mid := tsdb.New()
		_, midErr := ReplayWAL(midDir, 0, mid)
		if midErr != nil && !errors.Is(midErr, ErrWALCorrupt) {
			t.Fatalf("non-final segment: %v, want nil or ErrWALCorrupt", midErr)
		}
		last := tsdb.New()
		st, lastErr := ReplayWAL(lastDir, 0, last)
		switch {
		case lastErr != nil:
			// Only a bad magic is beyond repair, and it fails both ways.
			if !errors.Is(lastErr, ErrWALCorrupt) || midErr == nil {
				t.Fatalf("final segment: %v (non-final: %v)", lastErr, midErr)
			}
			return
		case st.TailTruncated != (midErr != nil):
			t.Fatalf("final segment repaired=%v, but non-final error %v", st.TailTruncated, midErr)
		case midErr == nil && !bytes.Equal(snapshotBytes(t, mid), snapshotBytes(t, last)):
			t.Fatal("an intact segment replays differently as the final one")
		}

		again := tsdb.New()
		st2, err := ReplayWAL(lastDir, 0, again)
		if err != nil || st2.TailTruncated {
			t.Fatalf("replaying the repaired segment: %v, stats %+v", err, st2)
		}
		if !bytes.Equal(snapshotBytes(t, again), snapshotBytes(t, last)) {
			t.Fatal("the repaired segment replays to a different store")
		}
	})
}
