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

// TestPipelineOrderAndSnapshots runs three stages, as Populate does. The
// first fills a slot, the second checks it and fills its second half, and
// the third checks the whole slot: every stage must see every step once,
// in order, in a slot holding exactly what the stages before it wrote, so
// a stage working on step i+1 never touches the slot of step i.
func TestPipelineOrderAndSnapshots(t *testing.T) {
	const n, width = 200, 64
	slots := make([][]float64, pipelineDepth)
	for i := range slots {
		slots[i] = make([]float64, width)
	}
	cell := func(i, j int) float64 { return float64(i*width + j) }
	// Each stage runs on its own goroutine: report by error.
	check := func(stage string, next *int, i int, snap []float64, upTo int) error {
		if i != *next {
			return fmt.Errorf("%s saw step %d, want %d", stage, i, *next)
		}
		*next++
		for j, v := range snap[:upTo] {
			if v != cell(i, j) {
				return fmt.Errorf("%s: step %d cell %d holds %g", stage, i, j, v)
			}
		}
		return nil
	}
	var second, third int
	err := pipeline(n, slots,
		func(i int, snap []float64) error {
			for j := range snap[:width/2] {
				snap[j] = cell(i, j)
			}
			return nil
		},
		func(i int, snap []float64) error {
			if err := check("second stage", &second, i, snap, width/2); err != nil {
				return err
			}
			for j := width / 2; j < width; j++ {
				snap[j] = cell(i, j)
			}
			return nil
		},
		func(i int, snap []float64) error {
			return check("third stage", &third, i, snap, width)
		})
	if err != nil {
		t.Fatal(err)
	}
	if second != n || third != n {
		t.Fatalf("stages saw %d and %d steps, want %d", second, third, n)
	}
}

// TestPipelineStopsAtFirstError checks that the last stage's error is
// returned, that no stage runs a step after it, and that the earlier
// stages stop within the slots already in flight.
func TestPipelineStopsAtFirstError(t *testing.T) {
	const n, failAt = 1000, 5
	boom := errors.New("boom")
	slots := make([]struct{}, pipelineDepth)
	var first, middle, last int
	err := pipeline(n, slots,
		func(int, struct{}) error { first++; return nil },
		func(int, struct{}) error { middle++; return nil },
		func(i int, _ struct{}) error {
			last++
			if i == failAt {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if last != failAt+1 {
		t.Errorf("last stage ran %d steps, want %d", last, failAt+1)
	}
	if first > failAt+len(slots) || middle > first {
		t.Errorf("stages ran %d and %d steps after a failure at step %d", first, middle, failAt)
	}
}

// TestPipelineStopsAfterMiddleStageError checks that a middle stage's
// error reaches the caller and that the last stage never sees its step.
func TestPipelineStopsAfterMiddleStageError(t *testing.T) {
	const failAt = 3
	boom := errors.New("boom")
	last := -1
	err := pipeline(100, make([]int, pipelineDepth),
		func(int, int) error { return nil },
		func(i int, _ int) error {
			if i == failAt {
				return boom
			}
			return nil
		},
		func(i int, _ int) error { last = i; return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if last != failAt-1 {
		t.Errorf("last stage's final step is %d, want %d", last, failAt-1)
	}
}
