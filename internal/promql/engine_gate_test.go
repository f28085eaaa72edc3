package promql

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dio/internal/tsdb"
)

func gateDB(t *testing.T) *tsdb.DB {
	t.Helper()
	db := tsdb.New()
	ls := tsdb.FromMap(map[string]string{tsdb.MetricNameLabel: "m", "instance": "a"})
	for i := 0; i < 10; i++ {
		if err := db.Append(ls, int64(i*1000), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestGateSerialisesQueries runs many concurrent queries through a
// single-slot gate: all succeed, and every gated query reports its queue
// wait through the hook.
func TestGateSerialisesQueries(t *testing.T) {
	opts := DefaultEngineOptions()
	opts.MaxConcurrent = 1
	eng := NewEngine(gateDB(t), opts)
	var waits atomic.Int64
	eng.SetHooks(Hooks{QueueWait: func(time.Duration) { waits.Add(1) }})

	const queries = 16
	var wg sync.WaitGroup
	errs := make(chan error, queries)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := query(context.Background(), eng, "sum(m)", time.UnixMilli(9000))
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := waits.Load(); got != queries {
		t.Errorf("queue-wait hook called %d times, want %d", got, queries)
	}
}

// TestGateRangeQueryNoDeadlock pins the slot discipline: a range query on
// a single-slot engine takes one slot for its whole step loop rather than
// re-acquiring per step (which would self-deadlock).
func TestGateRangeQueryNoDeadlock(t *testing.T) {
	opts := DefaultEngineOptions()
	opts.MaxConcurrent = 1
	eng := NewEngine(gateDB(t), opts)

	done := make(chan error, 1)
	go func() {
		_, err := queryRange(context.Background(), eng, "sum(m)",
			time.UnixMilli(0), time.UnixMilli(9000), time.Second)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("range query deadlocked on the gate")
	}
}

// TestGateCancelledWhileQueued checks a queued query fails with the
// context error instead of running after cancellation.
func TestGateCancelledWhileQueued(t *testing.T) {
	opts := DefaultEngineOptions()
	opts.MaxConcurrent = 1
	eng := NewEngine(gateDB(t), opts)

	// Occupy the only slot.
	eng.gate <- struct{}{}
	defer func() { <-eng.gate }()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := query(ctx, eng, "sum(m)", time.UnixMilli(9000))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("queued query succeeded despite cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued query did not observe cancellation")
	}
}

// TestOnSamplesHook checks the touched-samples hook fires once per query:
// an instant query's total, and a range query's summed over its steps.
func TestOnSamplesHook(t *testing.T) {
	eng := NewEngine(gateDB(t), DefaultEngineOptions())
	var total atomic.Int64
	eng.SetHooks(Hooks{OnSamples: func(n int) { total.Add(int64(n)) }})
	if _, err := query(context.Background(), eng, "m[10s]", time.UnixMilli(9000)); err != nil {
		t.Fatal(err)
	}
	if total.Load() == 0 {
		t.Error("OnSamples hook not called")
	}

	var calls, got int
	eng.SetHooks(Hooks{OnSamples: func(n int) { calls++; got = n }})
	ctx, capture := WithQueryStats(context.Background())
	if _, err := queryRange(ctx, eng, "sum(rate(m[3s]))", time.UnixMilli(3000), time.UnixMilli(9000), time.Second); err != nil {
		t.Fatal(err)
	}
	if want := capture.Stats().Samples; calls != 1 || int64(got) != want || want == 0 {
		t.Errorf("range query: OnSamples called %d times with %d, want once with QueryStats.Samples %d", calls, got, want)
	}
}
