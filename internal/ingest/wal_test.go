package ingest

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dio/internal/tsdb"
)

// collectReplay replays dir from fromSeg into a fresh store and returns
// its series in key order.
func collectReplay(t *testing.T, dir string, fromSeg int) ([]TimeSeries, ReplayStats) {
	t.Helper()
	db := tsdb.New()
	st, err := ReplayWAL(dir, fromSeg, db)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	var got []TimeSeries
	for _, sr := range db.AllSeries() {
		got = append(got, TimeSeries{Labels: sr.Labels, Samples: sr.Samples})
	}
	return got, st
}

func TestWALLogAndReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := mkSeries("a", nil, tsdb.Sample{T: 1000, V: 1}, tsdb.Sample{T: 2000, V: 2})
	b := mkSeries("b", map[string]string{"job": "x"}, tsdb.Sample{T: 1500, V: -1})
	mark, err := w.Log([]TimeSeries{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(mark); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Log([]TimeSeries{mkSeries("a", nil, tsdb.Sample{T: 3000, V: 3})}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, st := collectReplay(t, dir, 0)
	a.Samples = append(a.Samples, tsdb.Sample{T: 3000, V: 3})
	sameSeries(t, got, []TimeSeries{a, b})
	if st.Samples != 4 || st.TailTruncated {
		t.Fatalf("stats = %+v", st)
	}
}

// TestWALSegmentsSelfContained: after rotation each segment re-logs series
// labels, so replay can start at any segment boundary.
func TestWALSegmentsSelfContained(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ls := mkSeries("m", map[string]string{"instance": "i1"}, tsdb.Sample{T: 1, V: 1})
	if _, err := w.Log([]TimeSeries{ls}); err != nil {
		t.Fatal(err)
	}
	seg2, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Log([]TimeSeries{mkSeries("m", map[string]string{"instance": "i1"}, tsdb.Sample{T: 2, V: 2})}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Replay only from the post-rotation segment: the sample must still
	// resolve its labels.
	got, _ := collectReplay(t, dir, seg2)
	if len(got) != 1 || len(got[0].Samples) != 1 || got[0].Samples[0].T != 2 || !slices.Equal(got[0].Labels, ls.Labels) {
		t.Fatalf("replay from segment %d = %+v", seg2, got)
	}
}

func TestWALRepairsTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Log([]TimeSeries{mkSeries("m", nil, tsdb.Sample{T: 1, V: 1})}); err != nil {
		t.Fatal(err)
	}
	seg := w.currentSegment()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentName(seg))
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-write leaves a partial record at the tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, st := collectReplay(t, dir, 0)
	if len(got) != 1 || len(got[0].Samples) != 1 || got[0].Samples[0].T != 1 {
		t.Fatalf("replay after torn tail = %+v", got)
	}
	if !st.TailTruncated || st.TailBytesDropped != 6 {
		t.Fatalf("stats = %+v", st)
	}
	// The repair physically truncated the file back to the intact prefix.
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired) != len(intact) {
		t.Fatalf("repaired segment is %dB, want %dB", len(repaired), len(intact))
	}
}

func TestWALCorruptEarlierSegmentFails(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Log([]TimeSeries{mkSeries("m", nil, tsdb.Sample{T: 1, V: 1})}); err != nil {
		t.Fatal(err)
	}
	seg1 := w.currentSegment()
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Log([]TimeSeries{mkSeries("m", nil, tsdb.Sample{T: 2, V: 2})}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first (non-final) segment: repair must NOT
	// kick in, because acknowledged data would silently vanish.
	path := filepath.Join(dir, segmentName(seg1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rerr := ReplayWAL(dir, 0, tsdb.New())
	if !errors.Is(rerr, ErrWALCorrupt) {
		t.Fatalf("replay of corrupt middle segment: %v", rerr)
	}
}

func TestWALOpenStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first := w.currentSegment()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.currentSegment() <= first {
		t.Fatalf("reopen reused segment %d (first was %d)", w2.currentSegment(), first)
	}
}

var updateWAL = flag.Bool("update", false, "rewrite testdata/wal.golden from this run's segments")

// goldenPushes is TestWALSegmentGolden's push sequence: new series, a
// known one beside a new one, an empty series (it logs nothing), and,
// after the rotation the second push triggers, known series whose records
// the new segment logs again.
func goldenPushes() [][]TimeSeries {
	up := func(job string, samples ...tsdb.Sample) TimeSeries {
		return mkSeries("up", map[string]string{"job": job}, samples...)
	}
	return [][]TimeSeries{
		{up("a", tsdb.Sample{T: 1000, V: 1}, tsdb.Sample{T: 2000, V: 2}), up("b", tsdb.Sample{T: 1000, V: math.NaN()})},
		{up("a", tsdb.Sample{T: 3000, V: 3}), mkSeries("down", nil, tsdb.Sample{T: -5, V: -1}), mkSeries("empty", nil)},
		{up("b", tsdb.Sample{T: 4000, V: 4}), up("a", tsdb.Sample{T: 4000, V: math.Inf(1)})},
	}
}

// TestWALSegmentGolden pins the WAL format: goldenPushes, appended through
// the store with segments small enough to rotate after the second push,
// must write exactly the segment bytes in testdata/wal.golden, whether
// they arrive as []TimeSeries or as binary pushes keyed by their wire
// bytes. The golden was written by the build that still keyed series by
// their labels.
func TestWALSegmentGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/wal.golden")
	if err != nil && !*updateWAL {
		t.Fatal(err)
	}
	for name, appendTo := range map[string]func(*Store, []TimeSeries) (AppendStats, error){
		"append": (*Store).Append,
		"binary": func(st *Store, batch []TimeSeries) (AppendStats, error) {
			return st.Push(bytes.NewReader(EncodeBinary(batch)), ContentTypeBinary)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := OpenStore(dir, StoreOptions{SegmentBytes: 150})
			if err != nil {
				t.Fatal(err)
			}
			for i, batch := range goldenPushes() {
				if _, err := appendTo(st, batch); err != nil {
					t.Fatalf("push %d: %v", i, err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			for seg := 1; ; seg++ {
				raw, err := os.ReadFile(filepath.Join(dir, "wal", segmentName(seg)))
				if os.IsNotExist(err) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				got.WriteString("== " + segmentName(seg) + "\n" + hex.Dump(raw))
			}
			if *updateWAL && name == "append" {
				if err := os.WriteFile("testdata/wal.golden", []byte(got.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			if got.String() != string(want) {
				t.Fatalf("WAL segments differ from testdata/wal.golden:\n%s", got.String())
			}
		})
	}
}
