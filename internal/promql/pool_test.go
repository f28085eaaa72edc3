package promql

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"dio/internal/tsdb"
)

// TestPoolPoisonEquivalence re-runs the golden corpus with pool poisoning
// enabled: every arena reset scribbles 0xDEADBEEF sentinels over recycled
// step vectors, matrices, and scratch slices before they are handed out
// again. Any operator that holds a reference across a step — instead of
// copying what it keeps — surfaces as poisoned labels or timestamps in the
// rendered matrix, not as a silent wrong answer. The arena resets after
// every step, so each 21-step query crosses 20 resets.
func TestPoolPoisonEquivalence(t *testing.T) {
	poisonPools.Store(true)
	defer poisonPools.Store(false)

	db, end := testDB(t)
	w := corpusWindows(end)[0]
	eng := NewEngine(db, DefaultEngineOptions())
	for _, q := range rangeCorpus {
		checkRangeAgainstOracle(context.Background(), t, "poisoned", eng, q, w)
	}
}

// TestNoArenaEquivalence pins that arena recycling is invisible in
// results: the nil-arena heap path must render byte-identically to the
// oracle over the full corpus (the arena path is
// TestQueryRangeEquivalence's). The variant is set through the engine's
// unexported field — no option selects it.
func TestNoArenaEquivalence(t *testing.T) {
	db, end := testDB(t)
	w := corpusWindows(end)[0] // 21 steps
	heap := NewEngine(db, DefaultEngineOptions())
	heap.noArena = true
	for _, q := range rangeCorpus {
		checkRangeAgainstOracle(context.Background(), t, "no-arena", heap, q, w)
	}
}

// allocCeiling runs a warmed range query under testing.AllocsPerRun and
// fails if steady-state allocations exceed the ceiling, or, when
// byteCeiling is positive, if the bytes allocated per query do. Ceilings
// are set ~1.5x above measured values — they catch regressions back
// toward per-step materialization, not noise.
func allocCeiling(t *testing.T, eng *Engine, query string, start, end time.Time, step time.Duration, ceiling, byteCeiling float64) {
	t.Helper()
	expr, err := Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func() {
		if _, err := eng.QueryRangeExpr(ctx, expr, start, end, step); err != nil {
			t.Fatal(err)
		}
	}
	// Warm: first run pays parse-free one-time costs (selector fetch paths,
	// pool population) that steady-state dashboards never see again.
	for i := 0; i < 3; i++ {
		run()
	}
	got := testing.AllocsPerRun(5, run)
	t.Logf("%q: %.0f allocs/op (ceiling %.0f)", query, got, ceiling)
	if got > ceiling {
		t.Errorf("%q: %.0f allocs/op exceeds ceiling %.0f", query, got, ceiling)
	}
	if byteCeiling <= 0 {
		return
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%q: %.0f bytes/op (ceiling %.0f)", query, bytes, byteCeiling)
	if bytes > byteCeiling {
		t.Errorf("%q: %.0f bytes/op exceeds ceiling %.0f", query, bytes, byteCeiling)
	}
}

// readerDB holds write_read's series: 2 000 counters (40 instances × 50
// UEs) sampled every second for 15 minutes. It returns the last sample's
// time.
func readerDB(t testing.TB) (*tsdb.DB, time.Time) {
	t.Helper()
	db := tsdb.New()
	base := time.Date(2026, 7, 6, 10, 0, 0, 0, time.UTC)
	const instances, ues, seconds = 40, 50, 15 * 60
	for g := 0; g < instances; g++ {
		for u := 0; u < ues; u++ {
			ls := tsdb.FromMap(map[string]string{
				"__name__": "bench_dl_bytes_total", "job": "bench",
				"instance": fmt.Sprintf("gnb-%02d", g), "ue": fmt.Sprintf("ue-%04d", g*ues+u),
			})
			v := 0.0
			for s := 0; s < seconds; s++ {
				v += float64((s*7 + u*13 + g) % 1500)
				if err := db.Append(ls, base.Add(time.Duration(s)*time.Second).UnixMilli(), v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return db, base.Add((seconds - 1) * time.Second)
}

// TestStreamingAllocCeilings pins steady-state allocations per range query
// for the core shapes: a raw selector, an aggregation over a rate, a
// binary operation over two aggregations (its operands must not escape to
// the heap at every step), and write_read's reader query over 2 000
// series at 200 steps, whose bytes are pinned too: one reader slab and one
// arena come to about 5.6 MB, and splitting the steps into a second part,
// with its own slab and arena, takes it past 8 MB. Pooled streaming
// execution keeps these flat in the number of steps; a regression to
// per-step allocation, per-step window matrices or per-step label
// derivation blows the ceilings.
func TestStreamingAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	db, end := testDB(t)
	start := end.Add(-20 * time.Minute)

	eng := NewEngine(db, DefaultEngineOptions())
	allocCeiling(t, eng, "smf_pdu_session_active", start, end, time.Minute, 100, 0)
	allocCeiling(t, eng, "sum by (instance) (rate(amfcc_n1_auth_request[5m]))", start, end, time.Minute, 150, 0)
	allocCeiling(t, eng, "100 * sum(smf_pdu_session_active) / sum(amfcc_n1_auth_request)", start, end, time.Minute, 200, 0)

	wide, wend := readerDB(t)
	allocCeiling(t, NewEngine(wide, DefaultEngineOptions()), "sum by (instance) (rate(bench_dl_bytes_total[1m]))",
		wend.Add(-199*3*time.Second), wend, 3*time.Second, 16_000, 7<<20)
}
