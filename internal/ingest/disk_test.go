package ingest_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dio/internal/core"
	"dio/internal/feedback"
	"dio/internal/httpapi"
	"dio/internal/ingest"
	"dio/internal/llm"
	"dio/internal/testenv"
	"dio/internal/tsdb"
)

// isSegment reports whether f is a WAL segment (not a checkpoint or a
// directory).
func isSegment(f *os.File) bool { return strings.HasSuffix(f.Name(), ".log") }

// tokenSeries is a one-sample series whose ue label is a token unique to
// one append, so a write hook can tell which append's bytes it sees.
func tokenSeries(token string, t int64) []ingest.TimeSeries {
	return []ingest.TimeSeries{{
		Labels:  tsdb.NewLabels(tsdb.Label{Name: tsdb.MetricNameLabel, Value: "m"}, tsdb.Label{Name: "ue", Value: token}),
		Samples: []tsdb.Sample{{T: t, V: 1}},
	}}
}

// TestAppendAcksOnlyAfterACoveringFsync: under a slow fsync and eight
// concurrent appenders, every Append returns only after an fsync that
// started once its bytes were in the segment file and finished before the
// return. Each append logs a new series, whose record carries a unique
// token the write hook spots.
func TestAppendAcksOnlyAfterACoveringFsync(t *testing.T) {
	var (
		mu      sync.Mutex
		clock   int                // event counter, under mu
		wroteAt = map[string]int{} // token -> event its bytes were written at
		syncs   [][2]int           // start and end event of each segment fsync
	)
	// Tokens are fixed-width: the bytes after one may be digits.
	tokenRE := regexp.MustCompile(`tok-\d-\d`)
	restore := ingest.SetDiskFaults(ingest.DiskFaults{
		Write: func(f *os.File, p []byte) (int, error) {
			mu.Lock()
			clock++
			for _, tok := range tokenRE.FindAll(p, -1) {
				wroteAt[string(tok)] = clock
			}
			mu.Unlock()
			return f.Write(p)
		},
		Sync: func(f *os.File) error {
			if !isSegment(f) {
				return f.Sync()
			}
			mu.Lock()
			clock++
			start := clock
			mu.Unlock()
			time.Sleep(time.Millisecond)
			err := f.Sync()
			mu.Lock()
			clock++
			syncs = append(syncs, [2]int{start, clock})
			mu.Unlock()
			return err
		},
	})
	defer restore()
	st, err := ingest.OpenStore(t.TempDir(), ingest.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				token := fmt.Sprintf("tok-%d-%d", g, i)
				if _, err := st.Append(tokenSeries(token, 1000)); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				clock++
				acked, wrote := clock, wroteAt[token]
				covered := false
				for _, s := range syncs {
					covered = covered || (wrote > 0 && s[0] > wrote && s[1] < acked)
				}
				mu.Unlock()
				if !covered {
					t.Errorf("%s acknowledged at event %d with no fsync between its write (event %d) and the ack", token, acked, wrote)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestGroupCommitBatchesConcurrentAppenders: with a 5 ms fsync, appenders
// that arrive while one commits queue behind it and share the next fsync.
func TestGroupCommitBatchesConcurrentAppenders(t *testing.T) {
	var fsyncs, appends int
	var mu sync.Mutex
	restore := ingest.SetDiskFaults(ingest.DiskFaults{Sync: func(f *os.File) error {
		if isSegment(f) {
			mu.Lock()
			fsyncs++
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
		}
		return f.Sync()
	}})
	defer restore()
	st, err := ingest.OpenStore(t.TempDir(), ingest.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 4; i++ {
				if _, err := st.Append(tokenSeries(fmt.Sprintf("tok-%d-%d", g, i), 1000)); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				appends++
				mu.Unlock()
			}
		}(g)
	}
	close(start)
	wg.Wait()
	t.Logf("%d appends, %d fsyncs", appends, fsyncs)
	if fsyncs >= appends {
		t.Fatalf("%d fsyncs for %d concurrent appends: no group commit", fsyncs, appends)
	}
}

// newWriteHandler serves POST /api/v1/write from st, as dio-server wires
// it with -data-dir.
func newWriteHandler(t *testing.T, st *ingest.Store) http.Handler {
	t.Helper()
	cat, _, r, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := core.New(core.Config{Catalog: cat, TSDB: st.DB(), Model: llm.MustNew("gpt-4"), Retriever: r})
	if err != nil {
		t.Fatal(err)
	}
	return httpapi.New(cp, feedback.NewTracker([]string{"alice"}, nil), nil, httpapi.WithIngest(st))
}

// postWrite pushes batch in the binary codec and returns the status code.
func postWrite(h http.Handler, batch []ingest.TimeSeries) int {
	req := httptest.NewRequest(http.MethodPost, "/api/v1/write", bytes.NewReader(ingest.EncodeBinary(batch)))
	req.Header.Set("Content-Type", ingest.ContentTypeBinary)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// TestDiskFaultPoisonsTheWAL: after a failed fsync, a short write or
// ENOSPC, that push and every later one answer 500, even once the disk is
// healthy again. Recovery keeps every acknowledged sample and holds none
// of the pushes made after the fault.
func TestDiskFaultPoisonsTheWAL(t *testing.T) {
	faults := map[string]ingest.DiskFaults{
		"fsync error": {Sync: func(f *os.File) error {
			if isSegment(f) {
				return &os.PathError{Op: "sync", Path: f.Name(), Err: syscall.EIO}
			}
			return f.Sync()
		}},
		"short write": {Write: func(f *os.File, p []byte) (int, error) {
			n, _ := f.Write(p[:len(p)/2])
			return n, io.ErrShortWrite
		}},
		"ENOSPC": {Write: func(f *os.File, p []byte) (int, error) {
			return 0, &os.PathError{Op: "write", Path: f.Name(), Err: syscall.ENOSPC}
		}},
	}
	for name, fault := range faults {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := ingest.OpenStore(dir, ingest.StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			h := newWriteHandler(t, st)
			if code := postWrite(h, tokenSeries("acked", 1000)); code != http.StatusOK {
				t.Fatalf("healthy push answered %d", code)
			}
			restore := ingest.SetDiskFaults(fault)
			if code := postWrite(h, tokenSeries("faulted", 2000)); code != http.StatusInternalServerError {
				t.Fatalf("push during the fault answered %d, want 500", code)
			}
			if code := postWrite(h, tokenSeries("after-fault", 3000)); code != http.StatusInternalServerError {
				t.Fatalf("push on the poisoned WAL answered %d, want 500", code)
			}
			restore()
			if code := postWrite(h, tokenSeries("disk-healthy", 4000)); code != http.StatusInternalServerError {
				t.Fatalf("push after the disk recovered answered %d, want 500", code)
			}
			if _, err := st.Append(tokenSeries("direct", 5000)); err == nil {
				t.Fatal("Store.Append acknowledged on a poisoned WAL")
			}
			st.Close()

			re, err := ingest.OpenStore(dir, ingest.StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			for token, want := range map[string]bool{"acked": true, "after-fault": false, "disk-healthy": false, "direct": false} {
				m, err := tsdb.NewMatcher(tsdb.MatchEqual, "ue", token)
				if err != nil {
					t.Fatal(err)
				}
				if got := len(re.DB().SelectRange([]*tsdb.Matcher{m}, 0, 10000)) == 1; got != want {
					t.Errorf("after recovery, series %q present = %v, want %v", token, got, want)
				}
			}
		})
	}
}

// syncCounter counts fsyncs of one directory and fails them once armed.
type syncCounter struct {
	mu    sync.Mutex
	dir   string
	n     int
	armed bool
}

func (c *syncCounter) sync(f *os.File) error {
	if f.Name() != c.dir {
		return f.Sync()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if c.armed {
		return &os.PathError{Op: "sync", Path: f.Name(), Err: syscall.EIO}
	}
	return f.Sync()
}

func (c *syncCounter) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *syncCounter) arm() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed = true
}

// TestNewSegmentSyncsDirectory: a new segment's directory entry is fsynced
// once, at open and at every rotation, and a failure to do so fails the
// open or poisons the WAL.
func TestNewSegmentSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	c := &syncCounter{dir: dir}
	defer ingest.SetDiskFaults(ingest.DiskFaults{Sync: c.sync})()

	w, err := ingest.OpenWAL(dir, ingest.WALOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.count(); got != 1 {
		t.Fatalf("open fsynced the WAL directory %d times, want 1", got)
	}
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if got := c.count(); got != 2 {
		t.Fatalf("after Rotate: %d directory fsyncs, want 2", got)
	}
	mark, err := w.Log(tokenSeries(strings.Repeat("x", 300), 1000)) // past SegmentBytes: rotates
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(mark); err != nil {
		t.Fatal(err)
	}
	if got := c.count(); got != 3 {
		t.Fatalf("after a size rotation: %d directory fsyncs, want 3", got)
	}

	c.arm()
	if _, err := w.Rotate(); err == nil {
		t.Fatal("Rotate succeeded although the directory fsync failed")
	}
	if _, err := w.Log(tokenSeries("later", 2000)); err == nil {
		t.Fatal("Log succeeded on a WAL whose new segment is not durable")
	}
	w.Close()
	if _, err := ingest.OpenWAL(dir, ingest.WALOptions{}); err == nil {
		t.Fatal("OpenWAL succeeded although the directory fsync failed")
	}
}

// TestHeadlessSegmentSurvivesTwoRestarts: a new segment's magic is fsynced
// before its directory entry, and a newest segment that still lost its
// magic (0 bytes after a power cut) is dropped on recovery rather than
// left for the restart after that to reject as a corrupt non-final
// segment.
func TestHeadlessSegmentSurvivesTwoRestarts(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	st, err := ingest.OpenStore(dir, ingest.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(tokenSeries("acked", 1000)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var synced []string
	restore := ingest.SetDiskFaults(ingest.DiskFaults{Sync: func(f *os.File) error {
		synced = append(synced, f.Name())
		return f.Sync()
	}})
	st, err = ingest.OpenStore(dir, ingest.StoreOptions{}) // opens an empty segment
	restore()
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	newest := segs[len(segs)-1]
	if i := len(synced) - 2; i < 0 || synced[i] != newest || synced[i+1] != walDir {
		t.Fatalf("opening a segment fsynced %q, want the segment and then %s last", synced, walDir)
	}

	if err := os.Truncate(newest, 0); err != nil {
		t.Fatal(err)
	}
	m, err := tsdb.NewMatcher(tsdb.MatchEqual, "ue", "acked")
	if err != nil {
		t.Fatal(err)
	}
	for restart := 1; restart <= 2; restart++ {
		st, err := ingest.OpenStore(dir, ingest.StoreOptions{})
		if err != nil {
			t.Fatalf("restart %d: %v", restart, err)
		}
		got := len(st.DB().SelectRange([]*tsdb.Matcher{m}, 0, 10000))
		st.Close()
		if got != 1 {
			t.Fatalf("restart %d lost the acknowledged series", restart)
		}
	}
	segs, err = filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if fi, err := os.Stat(seg); err != nil || fi.Size() < int64(len(ingest.WALMagicForTest)) {
			t.Fatalf("segment %s has no header after recovery (%v)", filepath.Base(seg), err)
		}
	}
}

// TestCheckpointDirectorySyncErrorKeepsSegments: a checkpoint whose
// directory fsync fails returns the error and deletes no WAL segment, so
// a power cut cannot leave neither the checkpoint nor the segments.
func TestCheckpointDirectorySyncErrorKeepsSegments(t *testing.T) {
	dir := t.TempDir()
	st, err := ingest.OpenStore(dir, ingest.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 3; i++ {
		if _, err := st.Append(tokenSeries("m", int64(1000*(i+1)))); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Append(tokenSeries("n", int64(1000*(i+1)))); err != nil {
			t.Fatal(err)
		}
	}
	segments := func() []string {
		names, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	before := segments()

	c := &syncCounter{dir: dir, armed: true}
	restore := ingest.SetDiskFaults(ingest.DiskFaults{Sync: c.sync})
	err = st.Checkpoint()
	restore()
	if err == nil {
		t.Fatal("Checkpoint succeeded although its directory fsync failed")
	}
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("Checkpoint error %v does not carry the fsync failure", err)
	}
	after := segments()
	for _, seg := range before {
		found := false
		for _, s := range after {
			found = found || s == seg
		}
		if !found {
			t.Fatalf("segment %s was deleted by a checkpoint that failed", filepath.Base(seg))
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("checkpoint on a healthy disk: %v", err)
	}
}
