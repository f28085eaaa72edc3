package ingest

import "os"

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
