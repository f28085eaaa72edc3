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
// Range queries over this window run hundreds of steps —
// many times the default batch size — so batch boundaries fall mid-query.
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
// window (145 half-hour steps — several batches deep at 64 and at 7) must
// render byte-identically on the batched executor, at the default and at
// a small batch size, and on the oracle.
func TestLongRangeGoldenCorpus(t *testing.T) {
	db, end := longRangeDB(t)
	w := rangeWindow{"3d", end.Add(-72 * time.Hour), end, 30 * time.Minute}

	// The store is one shard; the subtest keeps the name it has always had.
	t.Run("shards=1", func(t *testing.T) {
		small := NewEngine(db, DefaultEngineOptions())
		small.batch = 7
		engines := map[string]*Engine{
			"batched":     NewEngine(db, DefaultEngineOptions()),
			"small-batch": small,
		}
		for _, q := range longRangeCorpus {
			for name, eng := range engines {
				checkRangeAgainstOracle(t, name, eng, q, w)
			}
		}
	})
}

// TestLongRangeBoundedIntermediate pins the memory story of streaming
// execution: over the 3-day window, peak intermediate (arena-held) bytes
// with the default batch size must come in well under a whole-range
// single-batch run, because only one batch of step vectors is ever live —
// and must stay flat when the same window is cut into three times as many
// steps (145 → 433), because the bound is the batch, not the range.
func TestLongRangeBoundedIntermediate(t *testing.T) {
	base, end := longRangeDB(t)
	start := end.Add(-72 * time.Hour)

	peak := func(batch int, step time.Duration) int64 {
		opts := DefaultEngineOptions()
		opts.ExecWorkers = 1 // partitioning splits the range; single-part isolates batch size
		eng := NewEngine(base, opts)
		eng.batch = batch
		var p int64
		eng.SetHooks(Hooks{OnRangeEval: func(s RangeStats) { p = s.PeakIntermediateBytes }})
		if _, err := queryRange(context.Background(), eng, longRangeCorpus[0], start, end, step); err != nil {
			t.Fatal(err)
		}
		return p
	}

	batched, whole := peak(defaultBatchSize, 30*time.Minute), peak(1<<20, 30*time.Minute)
	fine := peak(defaultBatchSize, 10*time.Minute)
	t.Logf("peak intermediate bytes: batch=%d %d (145 steps) %d (433 steps), whole-range %d", defaultBatchSize, batched, fine, whole)
	if batched <= 0 || whole <= 0 {
		t.Fatalf("peak bytes not recorded: batched=%d whole=%d", batched, whole)
	}
	if batched*2 >= whole {
		t.Errorf("batched peak %d not meaningfully below whole-range peak %d", batched, whole)
	}
	if fine > 2*batched {
		t.Errorf("batched peak grew %d -> %d from 145 to 433 steps; want flat (bounded by batch size, not range)", batched, fine)
	}
}
