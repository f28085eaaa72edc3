package ingest

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dio/internal/tsdb"
)

type replayed struct {
	ls tsdb.Labels
	t  int64
	v  float64
}

func collectReplay(t *testing.T, dir string, fromSeg int) ([]replayed, ReplayStats) {
	t.Helper()
	var got []replayed
	st, err := ReplayWAL(dir, fromSeg, func(ls tsdb.Labels, ts int64, v float64) error {
		got = append(got, replayed{ls, ts, v})
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
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
	want := []replayed{
		{a.Labels, 1000, 1}, {a.Labels, 2000, 2},
		{b.Labels, 1500, -1},
		{a.Labels, 3000, 3},
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].ls.Equal(want[i].ls) || got[i].t != want[i].t || got[i].v != want[i].v {
			t.Fatalf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
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
	if len(got) != 1 || got[0].t != 2 || !got[0].ls.Equal(ls.Labels) {
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
	if len(got) != 1 || got[0].t != 1 {
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
	_, rerr := ReplayWAL(dir, 0, func(tsdb.Labels, int64, float64) error { return nil })
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
