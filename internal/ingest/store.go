package ingest

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dio/internal/obs"
	"dio/internal/tsdb"
)

// Store pairs the in-memory chunked TSDB with the WAL to make ingest
// durable: an append is acknowledged only after its WAL record is fsynced,
// and Open recovers the exact acknowledged state after a crash by loading
// the newest checkpoint and replaying the segments it does not cover.
//
// Checkpoint files are chunked snapshots named checkpoint-%08d.chunks,
// where the number N is a WAL segment index: the checkpoint contains all
// samples from segments < N, so those segments are deletable. Recovery is
// idempotent because the TSDB treats an identical (t, v) re-append as a
// no-op and rejects older timestamps — replaying a segment that overlaps
// the checkpoint cannot corrupt or duplicate anything.
type Store struct {
	dir string
	db  *tsdb.DB
	wal *WAL

	// mu is held by an append across {WAL log, TSDB apply}, so the TSDB
	// applies pushes in WAL order and a sample the live store dropped as
	// out of order is dropped by replay too. A checkpoint holds it to
	// rotate the WAL, so every sample in a pre-rotation segment is then
	// also in the TSDB. It guards refs and appends.
	mu sync.Mutex
	// refs[walRef] is the TSDB ref of the series the WAL knows as walRef,
	// zero until its first append: a push resolves a known series by one
	// probe of its key in the WAL and by ref in the TSDB, and builds no
	// labels. A ref whose series retention dropped re-resolves from the
	// labels the WAL keeps (tsdb.DB.AppendRef's rule).
	refs []tsdb.SeriesRef
	// appends is one push's TSDB batch, reused.
	appends []tsdb.SeriesAppend

	replay ReplayStats

	appended   atomic.Int64
	outOfOrder atomic.Int64
	duplicates atomic.Int64

	// Metric handles are installed by Instrument (possibly after traffic
	// has started), hence the atomics.
	mAppended   atomic.Pointer[obs.Counter]
	mOutOfOrder atomic.Pointer[obs.Counter]
	mDuplicate  atomic.Pointer[obs.Counter]
	mFsync      atomic.Pointer[obs.Histogram]
	mWALBytes   atomic.Pointer[obs.Counter]
	mCheckpoint atomic.Pointer[obs.Counter]
}

// StoreOptions configure the durable store.
type StoreOptions struct {
	// FsyncInterval is ignored, like WALOptions.FsyncInterval.
	// SegmentBytes is passed to the WAL.
	FsyncInterval time.Duration
	SegmentBytes  int64
	// Shards is ignored: the store holds one TSDB.
	Shards int
}

const checkpointPrefix = "checkpoint-"
const checkpointSuffix = ".chunks"

func checkpointName(seg int) string {
	return fmt.Sprintf("%s%08d%s", checkpointPrefix, seg, checkpointSuffix)
}

// parseCheckpointName returns the WAL segment a checkpoint file covers.
func parseCheckpointName(name string) (int, bool) {
	body, ok := strings.CutPrefix(name, checkpointPrefix)
	if !ok {
		return 0, false
	}
	body, ok = strings.CutSuffix(body, checkpointSuffix)
	if !ok {
		return 0, false
	}
	seg, err := strconv.Atoi(body)
	return seg, err == nil && seg >= 0
}

// shardCheckpoint matches the per-shard checkpoint files,
// checkpoint-%08d.s%03d-of-%03d.chunks, that builds with a sharded TSDB
// wrote. This build cannot load them.
var shardCheckpoint = regexp.MustCompile(`^checkpoint-\d+\.s\d+-of-\d+\.chunks$`)

// listCheckpoints returns the segments of every checkpoint in dir,
// ascending. A per-shard checkpoint file is an error: the WAL segments it
// covers are gone, so recovering without it would silently fall back to
// an older checkpoint or to an empty TSDB.
func listCheckpoints(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []int
	for _, e := range ents {
		if shardCheckpoint.MatchString(e.Name()) {
			return nil, fmt.Errorf("ingest: %s is a per-shard checkpoint from a sharded build, which this build cannot load; refusing to recover without it",
				filepath.Join(dir, e.Name()))
		}
		if seg, ok := parseCheckpointName(e.Name()); ok {
			segs = append(segs, seg)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// loadCheckpoint reads the checkpoint covering segments before seg.
func loadCheckpoint(dir string, seg int) (*tsdb.DB, error) {
	f, err := os.Open(filepath.Join(dir, checkpointName(seg)))
	if err != nil {
		return nil, fmt.Errorf("ingest: load checkpoint %d: %w", seg, err)
	}
	defer f.Close()
	db, err := tsdb.LoadChunkedSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("ingest: load checkpoint %d: %w", seg, err)
	}
	return db, nil
}

// OpenStore recovers (or initialises) the durable store rooted at dir.
// The layout is dir/checkpoint-*.chunks plus dir/wal/ segments.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir}

	// 1. Newest checkpoint, if any, seeds the TSDB.
	segs, err := listCheckpoints(dir)
	if err != nil {
		return nil, err
	}
	fromSeg := 0
	if len(segs) > 0 {
		fromSeg = segs[len(segs)-1]
		if s.db, err = loadCheckpoint(dir, fromSeg); err != nil {
			return nil, err
		}
	} else {
		s.db = tsdb.New()
	}

	// 2. Replay WAL segments the checkpoint does not cover. Overlap with
	// the checkpoint is expected (rotation happens before the snapshot);
	// the append policy makes the replay idempotent.
	walDir := filepath.Join(dir, "wal")
	st, err := ReplayWAL(walDir, fromSeg, s.db)
	if err != nil {
		return nil, err
	}
	s.replay = st

	// 3. Open the WAL for new appends (always a fresh segment).
	wal, err := OpenWAL(walDir, WALOptions{
		SegmentBytes: opts.SegmentBytes,
		OnFsync: func(sec float64) {
			if h := s.mFsync.Load(); h != nil {
				h.Observe(sec)
			}
		},
		OnWrite: func(n int) {
			if c := s.mWALBytes.Load(); c != nil {
				c.Add(float64(n))
			}
		},
	})
	if err != nil {
		return nil, err
	}
	s.wal = wal
	return s, nil
}

// DB exposes the underlying TSDB for the query engine. Reads are safe
// concurrently with appends; writes must go through Store.Append.
func (s *Store) DB() *tsdb.DB { return s.db }

// ReplayStats reports what crash recovery had to do when the store was
// opened.
func (s *Store) ReplayStats() ReplayStats { return s.replay }

// AppendStats summarises one Append call.
type AppendStats struct {
	// Appended counts accepted samples, including idempotent re-appends
	// of the series head with an identical value (already durable, so
	// acknowledging them again is truthful).
	Appended   int
	OutOfOrder int // samples older than the series head, dropped
	Duplicate  int // same timestamp as the head with a different value, dropped
}

// afterLog, when set, runs in every append between the WAL log and the
// TSDB apply, under mu. Tests set it (export_test.go) to hold a push there.
var afterLog func(series []wireSeries)

// Push reads one write request from r, decodes it by content type and
// appends it as Append does. A binary body is parsed in place in a reused
// decoder, released once the push is durable or refused. A request that
// does not decode fails with ErrBadWritePayload and appends nothing.
func (s *Store) Push(r io.Reader, contentType string) (AppendStats, error) {
	d := getDecoder()
	defer d.release()
	if err := d.read(r, contentType); err != nil {
		return AppendStats{}, err
	}
	return s.append(d.series)
}

// Append logs the batch to the WAL, applies it to the TSDB, and waits for
// the WAL record to be durable before returning. Out-of-order and
// duplicate samples are dropped and counted (Prometheus remote-write
// semantics). A series with invalid labels fails the whole call with
// ErrBadWritePayload before anything is logged; otherwise only I/O or WAL
// failures make the call fail, and a failed call means the batch was NOT
// acknowledged.
func (s *Store) Append(batch []TimeSeries) (AppendStats, error) {
	d := getDecoder()
	defer d.release()
	d.fromSeries(batch)
	return s.append(d.series)
}

// append is Append for a decoded push.
func (s *Store) append(series []wireSeries) (AppendStats, error) {
	var st AppendStats
	s.mu.Lock()
	mark, err := s.apply(series, &st)
	s.mu.Unlock()
	if err != nil {
		return st, err
	}

	// Acknowledge only after the WAL record is on disk. The mark makes
	// this a group commit: one fsync covers every batch written since the
	// previous one.
	if err := s.wal.WaitDurable(mark); err != nil {
		return st, err
	}
	s.appended.Add(int64(st.Appended))
	s.outOfOrder.Add(int64(st.OutOfOrder))
	s.duplicates.Add(int64(st.Duplicate))
	if c := s.mAppended.Load(); c != nil {
		c.Add(float64(st.Appended))
	}
	if c := s.mOutOfOrder.Load(); c != nil {
		c.Add(float64(st.OutOfOrder))
	}
	if c := s.mDuplicate.Load(); c != nil {
		c.Add(float64(st.Duplicate))
	}
	return st, nil
}

// apply logs series to the WAL and appends them to the TSDB by ref,
// setting st to the TSDB's counts. It returns the WAL's durability mark.
// Callers hold mu.
func (s *Store) apply(series []wireSeries, st *AppendStats) (uint64, error) {
	mark, err := s.wal.log(series)
	if err != nil {
		return mark, err
	}
	if afterLog != nil {
		afterLog(series)
	}
	// Grow refs first: the batch points into it.
	top := uint64(0)
	for _, ws := range series {
		if len(ws.samples) > 0 {
			top = max(top, ws.ref)
		}
	}
	if n := int(top) + 1; n > len(s.refs) {
		s.refs = append(s.refs, make([]tsdb.SeriesRef, n-len(s.refs))...)
	}
	apps := s.appends[:0]
	for _, ws := range series {
		if len(ws.samples) > 0 {
			apps = append(apps, tsdb.SeriesAppend{Ref: &s.refs[ws.ref], Labels: ws.labels, Samples: ws.samples})
		}
	}
	st.Appended, st.OutOfOrder, st.Duplicate, err = s.db.AppendSeries(apps)
	clear(apps) // keep no pointer into the push past it
	s.appends = apps[:0]
	return mark, err
}

// Checkpoint writes a chunked snapshot covering every WAL segment before
// the current one, then deletes those segments and older checkpoints.
// Appends continue concurrently: only the segment rotation excludes them.
func (s *Store) Checkpoint() error {
	// Rotation under the write lock: afterwards every sample in segments
	// < newSeg is guaranteed to be in the TSDB, so the snapshot taken
	// below covers them.
	s.mu.Lock()
	newSeg, err := s.wal.Rotate()
	s.mu.Unlock()
	if err != nil {
		return err
	}

	tmp, err := os.CreateTemp(s.dir, checkpointPrefix+"*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := s.db.SnapshotChunked(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := syncFile(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, checkpointName(newSeg))); err != nil {
		return err
	}
	// The rename must be durable before the segments it replaces go.
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("ingest: sync checkpoint directory: %w", err)
	}

	// Garbage-collect what the new checkpoint supersedes: covered WAL
	// segments and older checkpoints.
	if err := s.wal.DeleteSegmentsBefore(newSeg); err != nil {
		return err
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if seg, ok := parseCheckpointName(e.Name()); ok && seg < newSeg {
			if err := os.Remove(filepath.Join(s.dir, e.Name())); err != nil {
				return err
			}
		}
	}
	if c := s.mCheckpoint.Load(); c != nil {
		c.Inc()
	}
	return nil
}

// Truncate drops samples at or before keepAfter from the TSDB and
// immediately checkpoints, so a restart cannot resurrect them from the
// WAL. Returns the number of samples dropped.
func (s *Store) Truncate(keepAfter int64) (int64, error) {
	dropped := s.db.Truncate(keepAfter)
	if err := s.Checkpoint(); err != nil {
		return dropped, err
	}
	return dropped, nil
}

// Close flushes and closes the WAL. The TSDB stays readable.
func (s *Store) Close() error {
	return s.wal.Close()
}

// Instrument registers the subsystem's metrics. Counters pick up totals
// accumulated before instrumentation (replay happens during Open).
func (s *Store) Instrument(reg *obs.Registry) {
	appended := reg.Counter("dio_ingest_appended_samples_total",
		"Samples durably appended through the ingest store.", "samples")
	appended.Add(float64(s.appended.Load()))
	s.mAppended.Store(appended)

	ooo := reg.Counter("dio_ingest_out_of_order_total",
		"Ingest samples dropped for being older than the series head.", "samples")
	ooo.Add(float64(s.outOfOrder.Load()))
	s.mOutOfOrder.Store(ooo)

	dup := reg.Counter("dio_ingest_duplicate_total",
		"Ingest samples dropped for reusing the head timestamp with a different value.", "samples")
	dup.Add(float64(s.duplicates.Load()))
	s.mDuplicate.Store(dup)

	s.mFsync.Store(reg.Histogram("dio_wal_fsync_seconds",
		"WAL fsync latency.", "seconds", obs.ExponentialBuckets(0.0001, 4, 8)))
	s.mWALBytes.Store(reg.Counter("dio_wal_bytes_written_total",
		"Bytes of framed records written to the WAL.", "bytes"))
	s.mCheckpoint.Store(reg.Counter("dio_ingest_checkpoints_total",
		"Checkpoints written by the ingest store.", "checkpoints"))

	reg.Counter("dio_wal_replay_samples_total",
		"Samples replayed from the WAL at startup.", "samples").Add(float64(s.replay.Samples))
	reg.Counter("dio_wal_replay_segments_total",
		"WAL segments replayed at startup.", "segments").Add(float64(s.replay.Segments))

	reg.GaugeFunc("dio_tsdb_chunk_bytes",
		"Bytes held in sealed and head chunks across all series.", "bytes",
		func() float64 { return float64(s.db.Stats().ChunkBytes) })
	reg.GaugeFunc("dio_tsdb_bytes_per_sample",
		"Average encoded bytes per stored sample.", "bytes",
		func() float64 { return s.db.Stats().BytesPerSample })
	reg.GaugeFunc("dio_tsdb_compression_ratio",
		"Raw 16-byte samples over encoded chunk bytes.", "ratio",
		func() float64 { return s.db.Stats().CompressionRatio })

}
