package promql

import (
	"context"
	"testing"
	"time"

	"dio/internal/tsdb"
)

// longRangeDB builds a multi-day fixture: three days of 5-minute samples
// (865 points per series) for a pair of counters with distinct rates and a
// sawtooth gauge, all carrying instance labels so aggregations group.
// Range queries over this window run hundreds of steps, so a query's
// readers stream across many sealed chunks and its arena resets hundreds
// of times.
func longRangeDB(t testing.TB) (*tsdb.DB, time.Time) {
	t.Helper()
	db := tsdb.New()
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	step := 5 * time.Minute
	n := 3 * 24 * 12 // 3 days
	for i := 0; i <= n; i++ {
		ts := base.Add(time.Duration(i) * step).UnixMilli()
		el := float64(i) * step.Seconds()
		mustAppend(t, db, map[string]string{"__name__": "upf_gtp_packets_total", "instance": "a"}, ts, 3*el)
		mustAppend(t, db, map[string]string{"__name__": "upf_gtp_packets_total", "instance": "b"}, ts, 7*el)
		mustAppend(t, db, map[string]string{"__name__": "upf_active_tunnels", "instance": "a"}, ts, float64(50+i%288))
		mustAppend(t, db, map[string]string{"__name__": "upf_active_tunnels", "instance": "b"}, ts, float64(120+(i*3)%288))
	}
	return db, base.Add(time.Duration(n) * step)
}

// longRangeCorpus extends the golden corpus with multi-day shapes: a rate
// aggregated per instance, a windowed max over the sawtooth gauge, and a
// summed increase over a 2h window.
var longRangeCorpus = []string{
	"sum by (instance) (rate(upf_gtp_packets_total[30m]))",
	"max_over_time(upf_active_tunnels[1h])",
	"sum(increase(upf_gtp_packets_total[2h]))",
}

// TestLongRangeGoldenCorpus: the long-range corpus over the full 3-day
// window (145 half-hour steps) must render byte-identically on the
// streaming executor, with and without its arena, and on the oracle.
func TestLongRangeGoldenCorpus(t *testing.T) {
	db, end := longRangeDB(t)
	w := rangeWindow{"3d", end.Add(-72 * time.Hour), end, 30 * time.Minute}

	// The store is one shard; the subtest keeps the name it has always had.
	t.Run("shards=1", func(t *testing.T) {
		heap := NewEngine(db, DefaultEngineOptions())
		heap.noArena = true
		engines := map[string]*Engine{
			"streamed": NewEngine(db, DefaultEngineOptions()),
			"no-arena": heap,
		}
		for _, q := range longRangeCorpus {
			for name, eng := range engines {
				checkRangeAgainstOracle(context.Background(), t, name, eng, q, w)
			}
		}
	})
}

// TestLongRangeBoundedIntermediate pins the memory story of streaming
// execution: over the 3-day window, peak intermediate (arena-held) bytes
// are one step's containers, because the arena resets after every step —
// under 1 KiB for this two-series query — and stay the same when the
// window is cut into three times as many steps (145 → 433), because the
// bound is the step, not the range.
func TestLongRangeBoundedIntermediate(t *testing.T) {
	base, end := longRangeDB(t)
	start := end.Add(-72 * time.Hour)

	peak := func(step time.Duration) int64 {
		eng := NewEngine(base, DefaultEngineOptions())
		var p int64
		eng.SetHooks(Hooks{OnRangeEval: func(s RangeStats) { p = s.PeakIntermediateBytes }})
		if _, err := queryRange(context.Background(), eng, longRangeCorpus[0], start, end, step); err != nil {
			t.Fatal(err)
		}
		return p
	}

	coarse, fine := peak(30*time.Minute), peak(10*time.Minute)
	t.Logf("peak intermediate bytes: %d (145 steps) %d (433 steps)", coarse, fine)
	if coarse <= 0 {
		t.Fatalf("peak bytes not recorded: %d", coarse)
	}
	if coarse > 1<<10 {
		t.Errorf("peak %d bytes over 145 steps; want one step's containers, under 1 KiB", coarse)
	}
	if fine != coarse {
		t.Errorf("peak moved %d -> %d from 145 to 433 steps; want flat (bounded by the step, not the range)", coarse, fine)
	}
}
