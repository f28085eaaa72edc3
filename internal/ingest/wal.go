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
// appender to wait fsyncs everything written so far, with the lock
// released, and the appenders that log meanwhile form the next group.
type WAL struct {
	dir  string
	opts WALOptions

	mu       sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	seg      int
	segBytes int64
	// refs maps series keys (codec.go), which are also the label part of
	// their series records, to their process-lifetime refs, dense from 1.
	// A key is stored only after keyLabels built and checked its labels,
	// which labels[ref] keeps. loggedInSeg[ref] reports whether ref
	// already has a series record in the current segment.
	refs        map[string]uint64
	labels      []tsdb.Labels
	loggedInSeg []bool
	nextRef     uint64
	// rec and seriesRec are reused across appends (each as large as the
	// largest request needs): the samples record and the series record
	// payloads. hdr is the record header; on the stack it would escape
	// through the writer.
	rec, seriesRec []byte
	hdr            [8]byte

	written uint64 // append batches written to the buffer
	synced  uint64 // append batches covered by a successful fsync
	err     error  // sticky write/fsync error
	closed  bool
	// syncing is set while a commit fsyncs with mu released; committed
	// (on mu) is signalled when it ends.
	syncing   bool
	committed sync.Cond
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
	w := &WAL{dir: dir, opts: opts, refs: make(map[string]uint64), labels: make([]tsdb.Labels, 1), loggedInSeg: make([]bool, 1)}
	w.committed.L = &w.mu
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
	clear(w.loggedInSeg)
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

// commitLocked is syncLocked with mu released for the fsync, so appends
// can log meanwhile; it covers the batches written before it flushed.
// Callers hold mu and have checked that no commit is in flight.
func (w *WAL) commitLocked() {
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return
	}
	f, target := w.f, w.written
	w.syncing = true
	w.mu.Unlock()
	t0 := time.Now()
	err := syncFile(f)
	took := time.Since(t0)
	w.mu.Lock()
	w.syncing = false
	w.committed.Broadcast()
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		return
	}
	w.synced = max(w.synced, target)
	if w.opts.OnFsync != nil {
		w.opts.OnFsync(took.Seconds())
	}
}

// awaitCommitLocked waits out a commit in flight, which may be syncing
// the current segment file. Callers hold mu.
func (w *WAL) awaitCommitLocked() {
	for w.syncing {
		w.committed.Wait()
	}
}

// writeRecordLocked frames and writes one record payload.
func (w *WAL) writeRecordLocked(payload []byte) {
	if w.err != nil {
		return
	}
	hdr := w.hdr[:]
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.bw.Write(hdr); err != nil {
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

// Log writes one append batch (series records as needed plus a samples
// record) and returns a durability mark for WaitDurable. It does not wait
// for the data to reach disk.
func (w *WAL) Log(batch []TimeSeries) (uint64, error) {
	d := getDecoder()
	defer d.release()
	d.fromSeries(batch)
	return w.log(d.series)
}

// log is Log for a decoded push. It first resolves every series by its
// key, setting its ref and labels. keyLabels builds and checks the labels
// of a key the WAL has not seen, so a bad series fails the whole batch
// with ErrBadWritePayload before anything is logged. A series with no
// samples gets no ref.
func (w *WAL) log(series []wireSeries) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrWALClosed
	}
	n := 0
	for i := range series {
		s := &series[i]
		n += len(s.samples)
		if s.ref = w.refs[string(s.key)]; s.ref == 0 {
			ls, err := keyLabels(uint64(i), s.key, maxLabelLength)
			if err != nil {
				return 0, err
			}
			if len(s.samples) == 0 {
				continue
			}
			w.nextRef++
			s.ref = w.nextRef
			w.refs[string(s.key)] = s.ref
			w.labels = append(w.labels, ls)
			w.loggedInSeg = append(w.loggedInSeg, false)
		}
		s.labels = w.labels[s.ref]
	}
	if n > 0 {
		payload := append(w.rec[:0], recSamples)
		payload = binary.AppendUvarint(payload, uint64(n))
		prevT := int64(0)
		for i := range series {
			s := &series[i]
			if len(s.samples) == 0 {
				continue
			}
			if !w.loggedInSeg[s.ref] {
				rec := append(w.seriesRec[:0], recSeries)
				w.seriesRec = append(binary.AppendUvarint(rec, s.ref), s.key...)
				w.writeRecordLocked(w.seriesRec)
				w.loggedInSeg[s.ref] = true
			}
			for _, smp := range s.samples {
				payload = binary.AppendUvarint(payload, s.ref)
				payload = binary.AppendUvarint(payload, zigzag(smp.T-prevT))
				prevT = smp.T
				payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(smp.V))
			}
		}
		w.writeRecordLocked(payload)
		w.rec = payload
	}
	w.written++
	mark := w.written // rotation may release mu, and others log meanwhile
	if w.err == nil && w.segBytes >= w.opts.SegmentBytes {
		w.rotateLocked()
	}
	return mark, w.err
}

// rotateLocked syncs and closes the current segment and opens the next,
// once no commit is syncing it; while it waits, mu is released.
func (w *WAL) rotateLocked() {
	w.awaitCommitLocked()
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
// batch not yet synced and no commit in flight commits everything written
// so far itself; one that finds a commit in flight waits for it. Appends
// log while a commit fsyncs, and the next commit covers them as a group.
func (w *WAL) WaitDurable(mark uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.synced < mark && w.err == nil && !w.closed {
		if w.syncing {
			w.committed.Wait()
			continue
		}
		w.commitLocked()
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
	w.awaitCommitLocked()
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

// ReplayWAL appends every sample of the segments with index >= fromSeg in
// dir to db, in log order. A sample the append policy rejects is skipped:
// it is already in db (replay overlaps the checkpoint it starts from), or
// it was rejected when first pushed. A torn or corrupt record at the tail
// of the *final* segment is repaired by truncating the file there; a
// corrupt record in any earlier segment aborts with ErrWALCorrupt —
// acknowledged data would be missing, which replay must not hide.
func ReplayWAL(dir string, fromSeg int, db *tsdb.DB) (ReplayStats, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return ReplayStats{}, err
	}
	r := &replayer{db: db, series: make(map[uint64]*replaySeries)}
	for i, seg := range segs {
		if seg < fromSeg {
			continue
		}
		if err := r.segment(dir, seg, i == len(segs)-1); err != nil {
			return r.st, err
		}
		r.st.Segments++
	}
	return r.st, nil
}

// replayer is one replay's state. WAL refs are only ever keys of its
// series map, so a hostile ref costs no more than a small one.
type replayer struct {
	db     *tsdb.DB
	series map[uint64]*replaySeries
	// batch is a samples record, parsed whole before any of it is
	// appended: a record the repair cuts off leaves nothing behind.
	batch []replaySample
	st    ReplayStats
}

// replaySeries is what one series record says about a WAL ref: its labels
// and, once its first sample is appended, the DB ref they resolve to.
type replaySeries struct {
	labels tsdb.Labels
	ref    tsdb.SeriesRef
}

type replaySample struct {
	series *replaySeries
	t      int64
	v      float64
}

// segment reads one segment file, repairing a damaged tail when last is
// true.
func (r *replayer) segment(dir string, seg int, last bool) error {
	path := filepath.Join(dir, segmentName(seg))
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	damaged := func(offset int, why string) error {
		if !last {
			return fmt.Errorf("%w: segment %d: %s at offset %d", ErrWALCorrupt, seg, why, offset)
		}
		r.st.TailTruncated = true
		r.st.TailBytesDropped = int64(len(raw) - offset)
		return os.Truncate(path, int64(offset))
	}
	if len(raw) < len(walMagic) && last {
		// A torn first write left no record. Truncating would leave a
		// headless file for the next segment to make non-final, so the
		// file goes, durably, before any new segment exists.
		r.st.TailTruncated, r.st.TailBytesDropped = true, int64(len(raw))
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
		if err := r.record(payload); err != nil {
			if errors.Is(err, errBadRecord) {
				return damaged(pos, err.Error())
			}
			return err
		}
		r.st.Records++
		pos += 8 + int(length)
	}
	return nil
}

// errBadRecord marks a record whose CRC passed but whose contents do not
// parse — treated like any other torn-tail damage.
var errBadRecord = errors.New("undecodable record")

// record replays one record. A series record (re)binds a WAL ref to
// labels, to be resolved to a DB ref by its first sample; a samples record
// appends each sample by DB ref.
func (r *replayer) record(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("%w: empty payload", errBadRecord)
	}
	typ, pos := payload[0], 1
	switch typ {
	case recSeries:
		ref, err := uvarint(payload, &pos)
		if err != nil {
			return fmt.Errorf("%w: series ref", errBadRecord)
		}
		// Log writes only keys keyLabels passed (older builds: any length).
		ls, err := keyLabels(ref, payload[pos:], math.MaxUint64)
		if err != nil {
			return fmt.Errorf("%w: %v", errBadRecord, err)
		}
		r.series[ref] = &replaySeries{labels: ls}
	case recSamples:
		n, err := uvarint(payload, &pos)
		if err != nil {
			return fmt.Errorf("%w: sample count", errBadRecord)
		}
		r.batch = r.batch[:0]
		prevT := int64(0)
		for i := uint64(0); i < n; i++ {
			ref, err := uvarint(payload, &pos)
			if err != nil {
				return fmt.Errorf("%w: sample ref", errBadRecord)
			}
			s, known := r.series[ref]
			if !known {
				return fmt.Errorf("%w: sample for unknown series ref %d", errBadRecord, ref)
			}
			zz, err := uvarint(payload, &pos)
			if err != nil {
				return fmt.Errorf("%w: sample timestamp", errBadRecord)
			}
			t := prevT + unzigzag(zz)
			prevT = t
			if len(payload)-pos < 8 {
				return fmt.Errorf("%w: sample value", errBadRecord)
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(payload[pos:]))
			pos += 8
			r.batch = append(r.batch, replaySample{s, t, v})
		}
		if pos != len(payload) {
			return fmt.Errorf("%w: %d trailing bytes", errBadRecord, len(payload)-pos)
		}
		for _, smp := range r.batch {
			s := smp.series
			if err := r.db.AppendRef(&s.ref, s.labels, smp.t, smp.v); err != nil && !errors.Is(err, tsdb.ErrOutOfOrder) {
				return err
			}
			r.st.Samples++
		}
	default:
		return fmt.Errorf("%w: unknown record type %#x", errBadRecord, typ)
	}
	return nil
}
