package fivegsim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"dio/internal/tsdb"
)

// TestPopulateAppendErrorStopsPipeline populates a store twice. The second
// run's first scrape lands before every series' newest sample, so its very
// first append fails: Populate must return that error, append nothing, and
// leave no goroutine behind.
func TestPopulateAppendErrorStopsPipeline(t *testing.T) {
	cfg := shortConfig()
	db, cat, _ := populate(t, cfg)
	series, samples := db.NumSeries(), db.NumSamples()
	base := runtime.NumGoroutine()

	cfg.Seed++
	_, err := Populate(db, cat, cfg)
	if !errors.Is(err, tsdb.ErrOutOfOrder) {
		t.Fatalf("second Populate: got %v, want an error wrapping tsdb.ErrOutOfOrder", err)
	}
	if at := cfg.Start.Format(time.RFC3339); !strings.Contains(err.Error(), at) {
		t.Errorf("error %q does not name the first step %s", err, at)
	}
	if db.NumSeries() != series || db.NumSamples() != samples {
		t.Errorf("failed run changed the store: %d/%d series, %d/%d samples",
			series, db.NumSeries(), samples, db.NumSamples())
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the failed run, %d before", n, base)
	}
}

// TestPipelineOrderAndSnapshots checks that every step is consumed once,
// in order, from a snapshot holding exactly what its producer wrote:
// producing step i+1 never touches the buffer of step i.
func TestPipelineOrderAndSnapshots(t *testing.T) {
	const n, width = 200, 64
	next := 0
	err := pipeline(n, width, func(i int, snap []float64) {
		for j := range snap {
			snap[j] = float64(i*width + j)
		}
	}, func(i int, snap []float64) error {
		// consume runs on the pipeline's goroutine: report by error.
		if i != next {
			return fmt.Errorf("consumed step %d, want %d", i, next)
		}
		next++
		for j, v := range snap {
			if v != float64(i*width+j) {
				return fmt.Errorf("step %d cell %d holds %g", i, j, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != n {
		t.Fatalf("consumed %d steps, want %d", next, n)
	}
}

// TestPipelineStopsAtFirstError checks that a consume error is returned,
// that no later step is consumed, and that the producer stops within the
// buffers already in flight.
func TestPipelineStopsAtFirstError(t *testing.T) {
	const n, failAt = 1000, 5
	boom := errors.New("boom")
	produced, consumed := 0, 0
	err := pipeline(n, 1, func(int, []float64) {
		produced++
	}, func(i int, _ []float64) error {
		consumed++
		if i == failAt {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if consumed != failAt+1 {
		t.Errorf("consumed %d steps, want %d", consumed, failAt+1)
	}
	if produced > failAt+pipelineBuffers {
		t.Errorf("produced %d steps after a failure at step %d", produced, failAt)
	}
}
