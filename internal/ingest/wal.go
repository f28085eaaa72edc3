package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dio/internal/tsdb"
)

// The WAL is an append-only sequence of segment files:
//
//	wal-00000001.log, wal-00000002.log, ...
//
// Each segment starts with an 8-byte magic and holds length+CRC framed
// records:
//
//	8B  magic "DIOWAL1\n"
//	records: [4B LE payload len][4B LE IEEE CRC-32 of payload][payload]
//
// Record payloads (first byte is the type):
//
//	0x01 series: uvarint seriesRef, uvarint label count,
//	     per label uvarint len + bytes (name, value)
//	0x02 samples: uvarint count, then per sample
//	     uvarint seriesRef, zigzag-varint delta from the previous
//	     timestamp in the record (from 0 for the first), 8B LE value bits
//
// Series refs are process-lifetime identifiers. Every segment re-logs a
// series' labels before its first sample record in that segment, so a
// segment sequence is replayable from any segment boundary — which is
// what lets checkpoints delete older segments entirely.
const (
	walMagic     = "DIOWAL1\n"
	recSeries    = 0x01
	recSamples   = 0x02
	walSegPrefix = "wal-"
	walSegSuffix = ".log"
)

// ErrWALCorrupt marks corruption in a non-final WAL segment — damage that
// repair-by-truncation must not paper over.
var ErrWALCorrupt = errors.New("ingest: corrupt WAL")

// ErrWALClosed is returned by appends after Close.
var ErrWALClosed = errors.New("ingest: WAL is closed")

// writeFile and syncFile carry every segment write and every fsync the WAL
// and the store make. Tests swap them (export_test.go) to slow a sync down
// or to inject a short write, ENOSPC or a failed fsync.
var (
	writeFile = (*os.File).Write
	syncFile  = (*os.File).Sync
)

// segmentWriter sends a segment's buffered writes through writeFile.
type segmentWriter struct{ f *os.File }

func (s segmentWriter) Write(p []byte) (int, error) { return writeFile(s.f, p) }

// syncDir fsyncs a directory, which is what makes a file created or
// renamed in it survive power loss: fsync(2) on the file alone does not
// persist its directory entry.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // opened read-only: nothing to lose on close
	return syncFile(d)
}

// WALOptions tune the write-ahead log.
type WALOptions struct {
	// SegmentBytes rotates to a new segment once the current one exceeds
	// this size. Default 16 MiB.
	SegmentBytes int64
	// FsyncInterval is ignored: every WAL commits as soon as a waiter
	// takes the lock. The field remains for callers that still set it.
	FsyncInterval time.Duration
	// OnFsync, when set, observes each fsync's duration in seconds.
	OnFsync func(seconds float64)
	// OnWrite, when set, observes bytes written per record batch.
	OnWrite func(bytes int)
}

// WAL is the segmented write-ahead log. It is safe for concurrent use.
// Durability is a group commit with no goroutine of its own: the first
// appender to wait takes the lock and fsyncs everything written so far,
// and the appenders that queue behind it meanwhile form the next group.
type WAL struct {
	dir  string
	opts WALOptions

	mu       sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	seg      int
	segBytes int64
	// refs maps series fingerprints to their process-lifetime refs;
	// loggedInSeg tracks which refs already have a series record in the
	// current segment.
	refs        map[string]uint64
	loggedInSeg map[uint64]bool
	nextRef     uint64
	// keyBuf, rec and seriesRec are reused across appends (each as large
	// as the largest request needs): the series-key lookup buffer, the
	// samples record and the series record payloads.
	keyBuf, rec, seriesRec []byte

	written uint64 // append batches written to the buffer
	synced  uint64 // append batches covered by a successful fsync
	err     error  // sticky write/fsync error
	closed  bool
}

// segmentName formats the file name of segment idx.
func segmentName(idx int) string {
	return fmt.Sprintf("%s%08d%s", walSegPrefix, idx, walSegSuffix)
}

// parseSegmentName returns the index of a segment file name.
func parseSegmentName(name string) (int, bool) {
	if !strings.HasPrefix(name, walSegPrefix) || !strings.HasSuffix(name, walSegSuffix) {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, walSegPrefix), walSegSuffix))
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// listSegments returns the segment indexes present in dir, sorted.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []int
	for _, e := range ents {
		if n, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// OpenWAL opens the log in dir, always starting a fresh segment after any
// existing ones (never appending to a file a crash may have truncated
// mid-record).
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 16 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	next := 1
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	}
	w := &WAL{dir: dir, opts: opts, refs: make(map[string]uint64)}
	if err := w.openSegmentLocked(next); err != nil {
		return nil, err
	}
	return w, nil
}

// openSegmentLocked starts segment idx and fsyncs its magic and then the
// WAL directory, so the records later acknowledged in it cannot lose
// their file to a power cut, and a durable entry never names a headless
// file. Callers hold mu (or own the WAL exclusively during open).
func (w *WAL) openSegmentLocked(idx int) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(idx)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := writeFile(f, []byte(walMagic)); err != nil {
		f.Close()
		return err
	}
	if err := syncFile(f); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.bw = bufio.NewWriterSize(segmentWriter{f}, 1<<20)
	w.seg = idx
	w.segBytes = int64(len(walMagic))
	w.loggedInSeg = make(map[uint64]bool)
	return nil
}

// syncLocked flushes the buffer and fsyncs the segment; on success every
// batch written so far is durable. A failure poisons the WAL. Callers
// hold mu.
func (w *WAL) syncLocked() {
	if w.err != nil {
		return
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return
	}
	t0 := time.Now()
	if err := syncFile(w.f); err != nil {
		w.err = err
		return
	}
	w.synced = w.written // mu held throughout: nothing was written meanwhile
	if w.opts.OnFsync != nil {
		w.opts.OnFsync(time.Since(t0).Seconds())
	}
}

// writeRecordLocked frames and writes one record payload.
func (w *WAL) writeRecordLocked(payload []byte) {
	if w.err != nil {
		return
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		w.err = err
		return
	}
	if _, err := w.bw.Write(payload); err != nil {
		w.err = err
		return
	}
	w.segBytes += int64(len(hdr) + len(payload))
	if w.opts.OnWrite != nil {
		w.opts.OnWrite(len(hdr) + len(payload))
	}
}

// refLocked resolves (allocating if needed) the ref for a series and
// guarantees its series record exists in the current segment.
func (w *WAL) refLocked(ls tsdb.Labels) uint64 {
	w.keyBuf = ls.AppendKey(w.keyBuf[:0])
	ref, ok := w.refs[string(w.keyBuf)]
	if !ok {
		w.nextRef++
		ref = w.nextRef
		w.refs[string(w.keyBuf)] = ref
	}
	if !w.loggedInSeg[ref] {
		payload := append(w.seriesRec[:0], recSeries)
		payload = binary.AppendUvarint(payload, ref)
		payload = binary.AppendUvarint(payload, uint64(len(ls)))
		for _, l := range ls {
			payload = binary.AppendUvarint(payload, uint64(len(l.Name)))
			payload = append(payload, l.Name...)
			payload = binary.AppendUvarint(payload, uint64(len(l.Value)))
			payload = append(payload, l.Value...)
		}
		w.writeRecordLocked(payload)
		w.seriesRec = payload
		w.loggedInSeg[ref] = true
	}
	return ref
}

// Log writes one append batch (series records as needed plus a samples
// record) and returns a durability mark for WaitDurable. It does not wait
// for the data to reach disk.
func (w *WAL) Log(batch []TimeSeries) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrWALClosed
	}
	n := 0
	for _, ts := range batch {
		n += len(ts.Samples)
	}
	if n > 0 {
		payload := append(w.rec[:0], recSamples)
		payload = binary.AppendUvarint(payload, uint64(n))
		prevT := int64(0)
		for _, ts := range batch {
			if len(ts.Samples) == 0 {
				continue
			}
			ref := w.refLocked(ts.Labels)
			for _, s := range ts.Samples {
				payload = binary.AppendUvarint(payload, ref)
				payload = binary.AppendUvarint(payload, zigzag(s.T-prevT))
				prevT = s.T
				payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(s.V))
			}
		}
		w.writeRecordLocked(payload)
		w.rec = payload
	}
	w.written++
	if w.err == nil && w.segBytes >= w.opts.SegmentBytes {
		w.rotateLocked()
	}
	return w.written, w.err
}

// rotateLocked syncs and closes the current segment and opens the next.
func (w *WAL) rotateLocked() {
	w.syncLocked()
	if err := w.f.Close(); err != nil && w.err == nil {
		w.err = err
	}
	if err := w.openSegmentLocked(w.seg + 1); err != nil && w.err == nil {
		w.err = err
	}
}

// Rotate forces a segment boundary (checkpointing rotates before
// snapshotting so older segments become deletable). It returns the index
// of the new current segment.
func (w *WAL) Rotate() (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrWALClosed
	}
	w.rotateLocked()
	return w.seg, w.err
}

// WaitDurable blocks until the batch identified by mark is fsynced, or
// returns the error that keeps it from being. A waiter that finds its
// batch not yet synced commits everything written so far itself, holding
// the lock, so appenders arriving meanwhile queue up as the next group.
func (w *WAL) WaitDurable(mark uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.synced < mark && !w.closed {
		w.syncLocked()
	}
	if w.synced >= mark {
		return nil
	}
	if w.err != nil {
		return w.err
	}
	return ErrWALClosed
}

// DeleteSegmentsBefore removes segments with index < keep (checkpoint
// garbage collection).
func (w *WAL) DeleteSegmentsBefore(keep int) error {
	segs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s < keep {
			if err := os.Remove(filepath.Join(w.dir, segmentName(s))); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close syncs outstanding writes and closes the segment. Further appends
// fail with ErrWALClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	w.syncLocked()
	w.closed = true
	if err := w.f.Close(); err != nil && w.err == nil {
		w.err = err
	}
	return w.err
}

// ReplayStats describes a crash-recovery replay.
type ReplayStats struct {
	Segments int
	Records  int
	Samples  int64
	// TailTruncated reports that the final segment ended in a torn or
	// corrupt record that was cut off (the crash-recovery repair path);
	// TailBytesDropped is how much was discarded.
	TailTruncated    bool
	TailBytesDropped int64
}

// ReplayWAL reads every segment with index >= fromSeg in dir, calling
// apply for each sample in log order. A torn or corrupt record at the
// tail of the *final* segment is repaired by truncating the file there; a
// corrupt record in any earlier segment aborts with ErrWALCorrupt —
// acknowledged data would be missing, which replay must not hide.
func ReplayWAL(dir string, fromSeg int, apply func(ls tsdb.Labels, t int64, v float64) error) (ReplayStats, error) {
	var st ReplayStats
	segs, err := listSegments(dir)
	if err != nil {
		return st, err
	}
	series := make(map[uint64]tsdb.Labels)
	for i, seg := range segs {
		if seg < fromSeg {
			continue
		}
		last := i == len(segs)-1
		if err := replaySegment(dir, seg, last, series, apply, &st); err != nil {
			return st, err
		}
		st.Segments++
	}
	return st, nil
}

// replaySegment reads one segment file, repairing a damaged tail when
// last is true.
func replaySegment(dir string, seg int, last bool, series map[uint64]tsdb.Labels,
	apply func(ls tsdb.Labels, t int64, v float64) error, st *ReplayStats) error {
	path := filepath.Join(dir, segmentName(seg))
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	damaged := func(offset int, why string) error {
		if !last {
			return fmt.Errorf("%w: segment %d: %s at offset %d", ErrWALCorrupt, seg, why, offset)
		}
		st.TailTruncated = true
		st.TailBytesDropped = int64(len(raw) - offset)
		return os.Truncate(path, int64(offset))
	}
	if len(raw) < len(walMagic) && last {
		// A torn first write left no record. Truncating would leave a
		// headless file for the next segment to make non-final, so the
		// file goes, durably, before any new segment exists.
		st.TailTruncated, st.TailBytesDropped = true, int64(len(raw))
		if err := os.Remove(path); err != nil {
			return err
		}
		return syncDir(dir)
	}
	if len(raw) < len(walMagic) || string(raw[:len(walMagic)]) != walMagic {
		return fmt.Errorf("%w: segment %d: torn or bad magic", ErrWALCorrupt, seg)
	}
	pos := len(walMagic)
	for pos < len(raw) {
		if len(raw)-pos < 8 {
			return damaged(pos, "torn record header")
		}
		length := binary.LittleEndian.Uint32(raw[pos:])
		wantCRC := binary.LittleEndian.Uint32(raw[pos+4:])
		if uint64(len(raw)-pos-8) < uint64(length) {
			return damaged(pos, "torn record body")
		}
		payload := raw[pos+8 : pos+8+int(length)]
		if crc32.ChecksumIEEE(payload) != wantCRC {
			return damaged(pos, "record CRC mismatch")
		}
		if err := applyRecord(payload, series, apply, st); err != nil {
			if errors.Is(err, errBadRecord) {
				return damaged(pos, err.Error())
			}
			return err
		}
		st.Records++
		pos += 8 + int(length)
	}
	return nil
}

// errBadRecord marks a record whose CRC passed but whose contents do not
// parse — treated like any other torn-tail damage.
var errBadRecord = errors.New("undecodable record")

func applyRecord(payload []byte, series map[uint64]tsdb.Labels,
	apply func(ls tsdb.Labels, t int64, v float64) error, st *ReplayStats) error {
	if len(payload) == 0 {
		return fmt.Errorf("%w: empty payload", errBadRecord)
	}
	typ, pos := payload[0], 1
	readUvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	switch typ {
	case recSeries:
		ref, ok := readUvarint()
		if !ok {
			return fmt.Errorf("%w: series ref", errBadRecord)
		}
		nLabels, ok := readUvarint()
		if !ok || nLabels == 0 || nLabels > maxLabelsPerSeries {
			return fmt.Errorf("%w: series label count", errBadRecord)
		}
		ls := make(tsdb.Labels, 0, nLabels)
		for i := uint64(0); i < nLabels; i++ {
			var parts [2]string
			for j := 0; j < 2; j++ {
				n, ok := readUvarint()
				if !ok || uint64(len(payload)-pos) < n {
					return fmt.Errorf("%w: series label bytes", errBadRecord)
				}
				parts[j] = string(payload[pos : pos+int(n)])
				pos += int(n)
			}
			ls = append(ls, tsdb.Label{Name: parts[0], Value: parts[1]})
		}
		series[ref] = ls
	case recSamples:
		n, ok := readUvarint()
		if !ok {
			return fmt.Errorf("%w: sample count", errBadRecord)
		}
		prevT := int64(0)
		for i := uint64(0); i < n; i++ {
			ref, ok := readUvarint()
			if !ok {
				return fmt.Errorf("%w: sample ref", errBadRecord)
			}
			ls, known := series[ref]
			if !known {
				return fmt.Errorf("%w: sample for unknown series ref %d", errBadRecord, ref)
			}
			zz, ok := readUvarint()
			if !ok {
				return fmt.Errorf("%w: sample timestamp", errBadRecord)
			}
			t := prevT + unzigzag(zz)
			prevT = t
			if len(payload)-pos < 8 {
				return fmt.Errorf("%w: sample value", errBadRecord)
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(payload[pos:]))
			pos += 8
			if err := apply(ls, t, v); err != nil {
				return err
			}
			st.Samples++
		}
	default:
		return fmt.Errorf("%w: unknown record type %#x", errBadRecord, typ)
	}
	if pos != len(payload) {
		return fmt.Errorf("%w: %d trailing bytes", errBadRecord, len(payload)-pos)
	}
	return nil
}
