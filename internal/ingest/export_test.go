package ingest

import "os"

// SetFsyncHook swaps the fsync implementation so tests can inject disk
// failures; it returns a restore function.
func SetFsyncHook(fn func(*os.File) error) (restore func()) {
	prev := fsyncFile
	fsyncFile = fn
	return func() { fsyncFile = prev }
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
