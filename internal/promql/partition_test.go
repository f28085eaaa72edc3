package promql

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dio/internal/catalog"
	"dio/internal/fivegsim"
	"dio/internal/tsdb"
)

// partitionsFor is the partition count execRange picks for q over
// [start, end]: the same selection, step count and worker cap.
func partitionsFor(t testing.TB, eng *Engine, q string, start, end time.Time, step time.Duration) int {
	t.Helper()
	expr, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := eng.planFor(expr)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.newExecState(cp, start.UnixMilli(), end.UnixMilli())
	return numPartitions(int(end.Sub(start)/step)+1, st.seriesCount(), st.workers)
}

// counterDB holds n counters named name, sampled every 15 s over d from
// base: a fixture whose size sets which side of the partition gate a
// query over it falls.
func counterDB(t testing.TB, name string, n int, base time.Time, d time.Duration) *tsdb.DB {
	t.Helper()
	db := tsdb.New()
	for i := 0; i < n; i++ {
		ls := tsdb.FromMap(map[string]string{tsdb.MetricNameLabel: name, "instance": fmt.Sprintf("i-%04d", i)})
		for s := time.Duration(0); s <= d; s += 15 * time.Second {
			if err := db.Append(ls, base.Add(s).UnixMilli(), float64(int(s/time.Second)*(i%7+1))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// TestPartitionGate pins which queries split their steps: the dashboard
// workload's six query_range shapes over the simulated trace (201 steps
// at about 2 series a select) run as one partition, and write_read's
// reader (2 000 series × 200 steps) splits across a 2-worker engine.
func TestPartitionGate(t *testing.T) {
	db := tsdb.New()
	cfg := fivegsim.DefaultConfig()
	if _, err := fivegsim.Populate(db, catalog.Generate(), cfg); err != nil {
		t.Fatal(err)
	}
	opts := DefaultEngineOptions()
	opts.ExecWorkers = 2
	eng := NewEngine(db, opts)
	// The shapes of bench_test.go's dashboardQueries.
	for _, q := range []string{
		"smfsm_pdu_sessions_active",
		"sum by (instance) (rate(amfcc_initial_registration_attempt[5m]))",
		"sum(rate(amfmm_paging_attempt[5m]))",
		"upfgtp_tunnels_active",
		"100 * sum(amfcc_initial_registration_success) / sum(amfcc_initial_registration_attempt)",
		"topk(5, sum by (instance) (rate(amfcc_initial_registration_attempt[5m])))",
	} {
		if n := partitionsFor(t, eng, q, cfg.Start, cfg.Start.Add(cfg.Duration), 36*time.Second); n != 1 {
			t.Errorf("%q: %d partitions, want 1", q, n)
		}
	}

	end := time.Date(2026, 7, 6, 10, 0, 0, 0, time.UTC)
	wide := NewEngine(counterDB(t, "bench_dl_bytes_total", 2000, end.Add(-time.Minute), 0), opts)
	const q = "sum by (instance) (rate(bench_dl_bytes_total[1m]))"
	if n := partitionsFor(t, wide, q, end.Add(-199*3*time.Second), end, 3*time.Second); n != 2 {
		t.Errorf("write_read's reader: %d partitions, want 2", n)
	}
}

// opCounts flattens a QueryStats tree into its clock-free counters.
func opCounts(o *OpStats) []string {
	out := []string{fmt.Sprintf("%s calls=%d out=%d samples=%d", o.Op, o.Calls, o.SeriesOut, o.Samples)}
	for _, c := range o.Children {
		out = append(out, opCounts(c)...)
	}
	return out
}

// TestCountsIndependentOfPartitions runs the wide corpus, which is above
// the partition gate, on one worker and on four. Every operator outside a
// subquery, the samples loaded and the storage fetches must come out the
// same, because each partition counts into its own slab and folds it once
// its span ends. Inside a subquery they may not: each part keeps its own
// inner steps, so a later partition's first window evaluates again the
// aligned inner steps its predecessor evaluated. There the four-worker
// counts must be exactly the sum of one-worker runs over each partition's
// steps, and the subquery's child must run once more per such step.
func TestCountsIndependentOfPartitions(t *testing.T) {
	db, start, end := wideDB(t)
	const step = 25 * time.Second // 37 steps: two partitions over 1 000 series
	nSteps := int(end.Sub(start)/step) + 1
	opts1, opts4 := DefaultEngineOptions(), DefaultEngineOptions()
	opts1.ExecWorkers, opts4.ExecWorkers = 1, 4
	run := func(opts EngineOptions, q string, from, to time.Time) (*QueryStats, RangeStats) {
		eng := NewEngine(db, opts)
		var rs RangeStats
		eng.SetHooks(Hooks{OnRangeEval: func(s RangeStats) { rs = s }})
		ctx, capture := WithQueryStats(context.Background())
		if _, err := queryRange(ctx, eng, q, from, to, step); err != nil {
			t.Fatalf("workers=%d %q: %v", opts.ExecWorkers, q, err)
		}
		return capture.Stats(), rs
	}
	for _, q := range wideCorpus {
		qs1, rs1 := run(opts1, q, start, end)
		qs4, rs4 := run(opts4, q, start, end)
		if qs1.Root.Calls != int64(nSteps) {
			t.Errorf("%q: root called %d times, want %d", q, qs1.Root.Calls, nSteps)
		}
		if qs1.Samples != qs4.Samples || qs1.Samples == 0 {
			t.Errorf("%q: samples %d on one worker, %d on four", q, qs1.Samples, qs4.Samples)
		}
		if rs1.SelectorMisses != rs4.SelectorMisses || rs1.SelectorHits == 0 {
			t.Errorf("%q: selector stats %+v on one worker, %+v on four", q, rs1, rs4)
		}
		nparts := partitionsFor(t, NewEngine(db, opts4), q, start, end, step)
		if nparts < 2 {
			t.Fatalf("%q: %d partitions on four workers, want the query above the gate", q, nparts)
		}
		expr, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		var sq *SubqueryExpr // the outermost subquery, if any
		Walk(expr, func(e Expr) {
			if s, ok := e.(*SubqueryExpr); ok && sq == nil {
				sq = s
			}
		})
		if sq == nil {
			c1, c4 := opCounts(qs1.Root), opCounts(qs4.Root)
			if fmt.Sprint(c1) != fmt.Sprint(c4) {
				t.Errorf("%q: operator counts differ\none worker:  %v\nfour workers: %v", q, c1, c4)
			}
			if rs1.SelectorHits != rs4.SelectorHits {
				t.Errorf("%q: selector stats %+v on one worker, %+v on four", q, rs1, rs4)
			}
			continue
		}

		// The partitions' steps, split as runPartitions splits them; the
		// inner steps each later partition's first window evaluates again
		// are the multiples of the inner step in (first-offset-range,
		// previous-offset].
		var parts []*OpStats
		hits, again := 0, int64(0)
		offMs, rngMs, stepMs := sq.Offset.Milliseconds(), sq.Range.Milliseconds(), sq.Step.Milliseconds()
		for w, lo := 0, 0; w < nparts; w++ {
			hi := lo + nSteps/nparts
			if w < nSteps%nparts {
				hi++
			}
			from := start.Add(time.Duration(lo) * step)
			qsw, rsw := run(opts1, q, from, start.Add(time.Duration(hi-1)*step))
			parts = append(parts, qsw.Root)
			hits += rsw.SelectorHits + rsw.SelectorMisses
			if w > 0 {
				first := from.UnixMilli() - offMs
				again += (first-step.Milliseconds())/stepMs - (first-rngMs)/stepMs
			}
			lo = hi
		}
		if want := hits - rs4.SelectorMisses; rs4.SelectorHits != want || rs4.SelectorHits < rs1.SelectorHits {
			t.Errorf("%q: %d selector hits on four workers, want %d, the partitions' (%d on one)", q, rs4.SelectorHits, want, rs1.SelectorHits)
		}
		var check func(o1, o4 *OpStats, ow []*OpStats, inside bool)
		check = func(o1, o4 *OpStats, ow []*OpStats, inside bool) {
			want := *o1
			if inside {
				want.Calls, want.SeriesOut, want.Samples = 0, 0, 0
				for _, o := range ow {
					want.Calls += o.Calls
					want.SeriesOut += o.SeriesOut
					want.Samples += o.Samples
				}
			}
			if o4.Calls != want.Calls || o4.SeriesOut != want.SeriesOut || o4.Samples != want.Samples ||
				o4.Calls < o1.Calls || o4.SeriesOut < o1.SeriesOut {
				t.Errorf("%q: %s: %d calls, %d out, %d samples on four workers, want %d, %d, %d (%d, %d, %d on one)",
					q, o1.Op, o4.Calls, o4.SeriesOut, o4.Samples, want.Calls, want.SeriesOut, want.Samples, o1.Calls, o1.SeriesOut, o1.Samples)
			}
			if sub := strings.HasPrefix(o1.Op, "subquery"); sub && !inside {
				if got := o4.Children[0].Calls - o1.Children[0].Calls; got != again {
					t.Errorf("%q: the subquery's child ran %d more times on %d partitions, want %d", q, got, nparts, again)
				}
			}
			for i := range o1.Children {
				kids := make([]*OpStats, len(ow))
				for j, o := range ow {
					kids[j] = o.Children[i]
				}
				check(o1.Children[i], o4.Children[i], kids, inside || strings.HasPrefix(o1.Op, "subquery"))
			}
		}
		check(qs1.Root, qs4.Root, parts, false)
	}
}

// TestFoldOnError fails a range query mid-span and requires OnRangeEval to
// see the failing partition's counters: the fold runs on the error path.
// 800 counters are read at every 10 s step; one more series has its only
// sample at the last step, so a MaxSamples of 800 fails exactly there, in
// the last partition, which nothing cancels.
func TestFoldOnError(t *testing.T) {
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	end := base.Add(15 * time.Minute)
	db := counterDB(t, "m", 800, base, 15*time.Minute)
	late := tsdb.FromMap(map[string]string{tsdb.MetricNameLabel: "m", "instance": "late"})
	if err := db.Append(late, end.UnixMilli(), 1); err != nil {
		t.Fatal(err)
	}
	const step = 10 * time.Second
	nSteps := int(end.Sub(base)/step) + 1
	for _, workers := range []int{1, 4} {
		opts := DefaultEngineOptions()
		opts.ExecWorkers, opts.MaxSamples = workers, 800
		eng := NewEngine(db, opts)
		var rs RangeStats
		eng.SetHooks(Hooks{OnRangeEval: func(s RangeStats) { rs = s }})
		if _, err := queryRange(context.Background(), eng, "sum(m)", base, end, step); !errors.Is(err, ErrTooManySamples) {
			t.Fatalf("workers=%d: got %v, want ErrTooManySamples", workers, err)
		}
		// The one scan is served once per evaluated step.
		served := rs.SelectorHits + rs.SelectorMisses
		nparts := partitionsFor(t, eng, "sum(m)", base, end, step)
		switch {
		case workers == 1 && (nparts != 1 || served != nSteps):
			t.Errorf("one worker: %d partitions served %d steps, want 1 serving all %d", nparts, served, nSteps)
		case workers > 1 && (nparts != workers || served < nSteps/nparts || served > nSteps):
			t.Errorf("%d workers: %d partitions served %d steps, want %d serving at least the last partition's %d",
				workers, nparts, served, workers, nSteps/nparts)
		}
	}
}

// TestRangeCancellation: a range query polls its context at every
// operator, on one partition and on two. Cancelling it, or letting the
// engine's timeout expire, after its first steps ends it before it has
// evaluated them all, with the context's error.
func TestRangeCancellation(t *testing.T) {
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	end := base.Add(3 * time.Hour)
	db := counterDB(t, "slow_total", 300, base, 3*time.Hour)
	const q = "sum(rate(slow_total[5m]))"
	const step = time.Second // 10 801 steps: far longer than the delays below
	nSteps := int(end.Sub(base)/step) + 1
	for _, workers := range []int{1, 2} {
		for _, timeout := range []bool{false, true} {
			opts := DefaultEngineOptions()
			opts.ExecWorkers = workers
			if timeout {
				opts.Timeout = time.Millisecond
			}
			eng := NewEngine(db, opts)
			if n := partitionsFor(t, eng, q, base, end, step); n != workers {
				t.Fatalf("workers=%d: %d partitions", workers, n)
			}
			ctx, cancel := context.WithCancel(context.Background())
			var rs RangeStats
			eng.SetHooks(Hooks{OnRangeEval: func(s RangeStats) { rs = s }})
			want := context.Canceled
			if timeout {
				want = context.DeadlineExceeded
			} else {
				time.AfterFunc(time.Millisecond, cancel)
			}
			_, err := queryRange(ctx, eng, q, base, end, step)
			cancel()
			if !errors.Is(err, want) {
				t.Errorf("workers=%d timeout=%v: got %v, want %v", workers, timeout, err, want)
			}
			if served := rs.SelectorHits + rs.SelectorMisses; served >= nSteps {
				t.Errorf("workers=%d timeout=%v: evaluated all %d steps", workers, timeout, nSteps)
			}
		}
	}
}

// TestPartitionErrorPrefersRootCause: when the later partition exceeds the
// sample budget at its first step and cancels the earlier one mid-span,
// the query reports ErrTooManySamples, not the sibling's context.Canceled
// at an earlier step.
func TestPartitionErrorPrefersRootCause(t *testing.T) {
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	end := base.Add(2 * time.Hour)
	db := counterDB(t, "m", 300, base, 2*time.Hour)
	// A second series set starts where the second partition does.
	const step = 5 * time.Second
	nSteps := int(end.Sub(base)/step) + 1
	mid := base.Add(time.Duration((nSteps+1)/2) * step)
	for i := 0; i < 300; i++ {
		ls := tsdb.FromMap(map[string]string{tsdb.MetricNameLabel: "m", "instance": fmt.Sprintf("late-%03d", i)})
		for ts := mid; !ts.After(end); ts = ts.Add(15 * time.Second) {
			if err := db.Append(ls, ts.UnixMilli(), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	opts := DefaultEngineOptions()
	opts.ExecWorkers, opts.MaxSamples = 2, 300
	eng := NewEngine(db, opts)
	if n := partitionsFor(t, eng, "sum(m)", base, end, step); n != 2 {
		t.Fatalf("%d partitions, want 2", n)
	}
	for i := 0; i < 5; i++ {
		if _, err := queryRange(context.Background(), eng, "sum(m)", base, end, step); !errors.Is(err, ErrTooManySamples) {
			t.Fatalf("run %d: got %v, want ErrTooManySamples", i, err)
		}
	}
}
