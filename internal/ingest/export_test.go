package ingest

import (
	"os"
	"slices"

	"dio/internal/tsdb"
)

// DiskFaults replaces the disk calls of the WAL and the store so tests can
// slow a sync down or inject a short write, ENOSPC or a failed fsync. A nil
// field keeps the real call. Write sees every segment write (the segment
// magic and each buffer flush); Sync sees segment, checkpoint and
// directory fsyncs, told apart by f.Name().
type DiskFaults struct {
	Write func(f *os.File, p []byte) (int, error)
	Sync  func(f *os.File) error
}

// SetDiskFaults installs faults and returns a function restoring the real
// calls. Install it while no append or checkpoint is in flight.
func SetDiskFaults(faults DiskFaults) (restore func()) {
	prevWrite, prevSync := writeFile, syncFile
	if faults.Write != nil {
		writeFile = faults.Write
	}
	if faults.Sync != nil {
		syncFile = faults.Sync
	}
	return func() { writeFile, syncFile = prevWrite, prevSync }
}

// SetAfterLog installs fn to run in every store append between the WAL
// log and the TSDB apply, with the store's append lock held, and returns a
// function removing it. fn gets a copy of the push. Install it while no
// append is in flight.
func SetAfterLog(fn func(batch []TimeSeries)) (restore func()) {
	prev := afterLog
	afterLog = func(series []wireSeries) {
		batch := make([]TimeSeries, len(series))
		for i, s := range series {
			batch[i] = TimeSeries{Labels: appendLabels(nil, s.key, string(s.key)), Samples: slices.Clone(s.samples)}
		}
		fn(batch)
	}
	return func() { afterLog = prev }
}

// tsdbRef returns the TSDB ref the store holds for the series ls.
func (s *Store) tsdbRef(ls tsdb.Labels) tsdb.SeriesRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refs[s.wal.refs[string(appendKey(nil, ls))]]
}

// currentSegment returns the index of the segment appends go to.
func (w *WAL) currentSegment() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seg
}

// Internal identifiers re-exported for white-box tests.
var (
	SegmentNameForTest    = segmentName
	CheckpointNameForTest = checkpointName
)

const WALMagicForTest = walMagic
