package promql

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dio/internal/tsdb"
)

// TestPoolPoisonEquivalence re-runs the golden corpus with pool poisoning
// enabled: every arena reset scribbles 0xDEADBEEF sentinels over recycled
// step vectors, matrices, and scratch slices before they are handed out
// again. Any operator that holds a reference across a batch boundary —
// instead of copying what it keeps — surfaces as poisoned labels or
// timestamps in the rendered matrix, not as a silent wrong answer. A
// 7-step batch puts two resets inside each 21-step query.
func TestPoolPoisonEquivalence(t *testing.T) {
	poisonPools.Store(true)
	defer poisonPools.Store(false)

	db, end := testDB(t)
	w := corpusWindows(end)[0]
	for _, batch := range []int{defaultBatchSize, 7} {
		eng := NewEngine(db, DefaultEngineOptions())
		eng.batch = batch
		for _, q := range rangeCorpus {
			checkRangeAgainstOracle(t, fmt.Sprintf("poisoned batch=%d", batch), eng, q, w)
		}
	}
}

// TestBatchSizeEquivalence pins that batch size and arena recycling are
// invisible in results: single-step batches, a small odd batch, a batch
// longer than the whole range, and the nil-arena heap path must all
// render byte-identically to the oracle over the full corpus (the default
// 64 is TestQueryRangeEquivalence's). The variants are set through the
// engine's unexported fields — no option selects them.
func TestBatchSizeEquivalence(t *testing.T) {
	db, end := testDB(t)
	w := corpusWindows(end)[0] // 21 steps

	variants := map[string]*Engine{}
	for _, bs := range []int{1, 7, 1 << 20} {
		eng := NewEngine(db, DefaultEngineOptions())
		eng.batch = bs
		variants[fmt.Sprintf("batch=%d", bs)] = eng
	}
	heap := NewEngine(db, DefaultEngineOptions())
	heap.noArena = true
	variants["no-arena"] = heap

	for _, q := range rangeCorpus {
		for name, eng := range variants {
			checkRangeAgainstOracle(t, name, eng, q, w)
		}
	}
}

// allocCeiling runs a warmed range query under testing.AllocsPerRun and
// fails if steady-state allocations exceed the ceiling. Ceilings are set
// ~1.5x above measured values — they catch regressions back toward
// per-step materialization (thousands of allocations), not noise.
func allocCeiling(t *testing.T, eng *Engine, query string, start, end time.Time, step time.Duration, ceiling float64) {
	t.Helper()
	expr, err := Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Warm: first run pays parse-free one-time costs (selector fetch paths,
	// pool population) that steady-state dashboards never see again.
	for i := 0; i < 3; i++ {
		if _, err := eng.QueryRangeExpr(ctx, expr, start, end, step); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(5, func() {
		if _, err := eng.QueryRangeExpr(ctx, expr, start, end, step); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%q: %.0f allocs/op (ceiling %.0f)", query, got, ceiling)
	if got > ceiling {
		t.Errorf("%q: %.0f allocs/op exceeds ceiling %.0f", query, got, ceiling)
	}
}

// TestStreamingAllocCeilings pins steady-state allocations per range query
// for the three core shapes: a raw selector, an aggregation over a rate,
// and a distributed aggregation across four shards. Pooled streaming
// execution keeps these flat in the number of steps; a regression to
// per-step allocation blows the ceilings by an order of magnitude.
func TestStreamingAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	base, end := unshardedTestDB(t)
	start := end.Add(-20 * time.Minute)

	opts := DefaultEngineOptions()
	opts.ExecWorkers = 1 // partitioning adds per-part arenas; pin one for a stable count

	eng := NewEngine(base, opts)
	allocCeiling(t, eng, "smf_pdu_session_active", start, end, time.Minute, 100)
	allocCeiling(t, eng, "sum by (instance) (rate(amfcc_n1_auth_request[5m]))", start, end, time.Minute, 150)

	dist := NewEngine(tsdb.Reshard(base, 4), opts)
	allocCeiling(t, dist, "sum by (instance) (rate(amfcc_n1_auth_request[5m]))", start, end, time.Minute, 1000)
}
