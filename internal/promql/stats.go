package promql

// stats.go — per-operator execution statistics (EXPLAIN ANALYZE). The
// compiler gives every operator a dense stats slot, and an execution's
// part allocates a matching []opSlot once up front.
// Collection is allocation-free on the hot path: part.eval and
// part.window add call counts, output series and sampled wall time into
// the operator's slot with plain adds, and the scan operators attribute
// the samples they account into their own slot. The part hands its slots
// to the execution when its span ends (part.finish). Clock reads are
// strided (statsTimeEvery) and scaled back up when building; every other
// counter is exact. Once the part has finished, deposit turns the slots
// into a QueryStats tree over
// the operator tree, labelled as Explain labels it. Callers retrieve it
// through a context capture (WithQueryStats) and render it with
// Render/Compact.
//
// Collection is unconditional and never touches evaluation values: the
// golden corpora compare the instrumented executor with an oracle that
// collects nothing.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"
)

// statsTimeEvery is the wall-time sampling stride: every N-th call of an
// operator is timed (the first always is, so instant queries and EXPLAIN
// ANALYZE of a single evaluation measure every operator exactly), and
// buildOp scales the sampled sum back up by calls/timed. Counters stay
// exact; only the clock reads are sampled — on hosts where a monotonic
// clock read costs ~100ns, timing all of a 200-step range query's
// operator calls cost 16% on the dashboard mix.
const statsTimeEvery = 16

// opSlot is one execution's accumulator for one operator.
type opSlot struct {
	wallNs  int64
	calls   int64
	timed   int64 // calls that contributed to wallNs
	series  int64
	samples int64
}

// seriesIn counts a produced value's output series.
func seriesIn(v Value) int {
	switch x := v.(type) {
	case Vector:
		return len(x)
	case Matrix:
		return len(x)
	}
	return 0
}

// QueryStats is the profile of one query execution: totals plus a
// per-operator tree mirroring the plan.
type QueryStats struct {
	Query        string
	Kind         string // "instant" or "range"
	Start        time.Time
	Duration     time.Duration
	Samples      int64 // stored samples touched (the MaxSamples currency)
	Steps        int
	PlanCacheHit bool
	MaxSamples   int    // the budget Samples counts against; 0 = unlimited
	Plan         string // the compiled plan's one-line form (the promql.plan span attribute)
	Root         *OpStats
}

// OpStats is one operator's slice of the profile. Wall is inclusive of
// children (Self excludes them); on multi-step executions it is scaled up
// from every statsTimeEvery-th call, so it is an estimate.
type OpStats struct {
	Op        string
	Wall      time.Duration
	Calls     int64
	SeriesOut int64
	Samples   int64
	Children  []*OpStats
}

// Self is the operator's exclusive wall time: total minus children,
// clamped at zero (wall times are strided samples scaled up per operator,
// so children's estimates can exceed their parent's).
func (o *OpStats) Self() time.Duration {
	self := o.Wall
	for _, c := range o.Children {
		self -= c.Wall
	}
	if self < 0 {
		return 0
	}
	return self
}

// Render returns the annotated plan tree, hot-path percentages included —
// the EXPLAIN ANALYZE output.
func (qs *QueryStats) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "analyze for: %s\n", qs.Query)
	cache := "miss"
	if qs.PlanCacheHit {
		cache = "hit"
	}
	fmt.Fprintf(&b, "total %s | samples %s | steps %d | plan cache %s\n",
		formatDur(qs.Duration), formatBudget(qs.Samples, qs.MaxSamples), qs.Steps, cache)
	if qs.Root != nil {
		root := qs.Root.Wall
		renderOpTree(&b, qs.Root, root, "└─ ", "   ")
	}
	return b.String()
}

func renderOpTree(b *strings.Builder, o *OpStats, root time.Duration, head, tail string) {
	b.WriteString(head)
	b.WriteString(o.Op)
	fmt.Fprintf(b, "  [%s %s | self %s | %d calls | %d out",
		formatDur(o.Wall), percentOf(o.Wall, root), formatDur(o.Self()), o.Calls, o.SeriesOut)
	if o.Samples > 0 {
		fmt.Fprintf(b, " | %d samples", o.Samples)
	}
	b.WriteString("]\n")
	for i, c := range o.Children {
		if i == len(o.Children)-1 {
			renderOpTree(b, c, root, tail+"└─ ", tail+"   ")
		} else {
			renderOpTree(b, c, root, tail+"├─ ", tail+"│  ")
		}
	}
}

// Compact returns the one-line profile the slow-query log stores:
// operators nest in plan order, each with wall time, hot-path percentage
// and output series.
func (qs *QueryStats) Compact() string {
	var b strings.Builder
	if qs.Root != nil {
		compactOp(&b, qs.Root, qs.Root.Wall)
	}
	fmt.Fprintf(&b, " | total=%s samples=%d steps=%d", formatDur(qs.Duration), qs.Samples, qs.Steps)
	return b.String()
}

func compactOp(b *strings.Builder, o *OpStats, root time.Duration) {
	b.WriteString(o.Op)
	fmt.Fprintf(b, "{%s %s %d out}", formatDur(o.Wall), percentOf(o.Wall, root), o.SeriesOut)
	if len(o.Children) > 0 {
		b.WriteByte('(')
		for i, c := range o.Children {
			if i > 0 {
				b.WriteString(", ")
			}
			compactOp(b, c, root)
		}
		b.WriteByte(')')
	}
}

func percentOf(d, root time.Duration) string {
	if root <= 0 {
		return "0%"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(d)/float64(root))
}

func formatDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	}
	return fmt.Sprintf("%.3fs", d.Seconds())
}

func formatBudget(samples int64, max int) string {
	if max <= 0 {
		return fmt.Sprintf("%d", samples)
	}
	return fmt.Sprintf("%d/%d", samples, max)
}

// --- capture -------------------------------------------------------------

// StatsCapture receives the QueryStats of the next evaluation run under
// its context. Safe for concurrent use (the engine deposits from the
// evaluating goroutine).
type StatsCapture struct {
	mu sync.Mutex
	qs *QueryStats
}

type statsCtxKey struct{}

// WithQueryStats derives a context that captures the execution statistics
// of the next query evaluated under it. A context that already carries a
// capture is returned as it is, with that capture: a caller that asks for
// the profile and the sandbox that records it share one.
func WithQueryStats(ctx context.Context) (context.Context, *StatsCapture) {
	if c, ok := statsCaptureFrom(ctx); ok {
		return ctx, c
	}
	c := &StatsCapture{}
	return context.WithValue(ctx, statsCtxKey{}, c), c
}

func statsCaptureFrom(ctx context.Context) (*StatsCapture, bool) {
	c, ok := ctx.Value(statsCtxKey{}).(*StatsCapture)
	return c, ok
}

func (c *StatsCapture) set(qs *QueryStats) {
	c.mu.Lock()
	c.qs = qs
	c.mu.Unlock()
}

// Stats returns the captured profile, or nil when no evaluation has
// deposited one (none ran under the context yet, or its query did not
// compile). A query that compiled and then failed leaves its profile.
func (c *StatsCapture) Stats() *QueryStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.qs
}

// --- building ------------------------------------------------------------

// deposit folds the execution's slots into the QueryStats tree and hands
// it to the capture ctx carries, if any. Called once, after the part has
// finished, whether or not the execution failed.
func (st *execState) deposit(ctx context.Context, expr Expr, kind string, start time.Time, samples int64, steps int, cacheHit bool) {
	c, ok := statsCaptureFrom(ctx)
	if !ok {
		return
	}
	qs := &QueryStats{
		Query:        expr.String(),
		Kind:         kind,
		Start:        start,
		Duration:     time.Since(start),
		Samples:      samples,
		Steps:        steps,
		PlanCacheHit: cacheHit,
		MaxSamples:   st.eng.opts.MaxSamples,
		Plan:         st.cp.compact,
	}
	qs.Root = st.buildOp(st.cp.root)
	c.set(qs)
}

func (st *execState) buildOp(op physOp) *OpStats {
	sl := &st.ops[op.statsIdx()]
	o := &OpStats{
		Op:        st.cp.labels[op.statsIdx()],
		Wall:      time.Duration(sl.wallNs),
		Calls:     sl.calls,
		SeriesOut: sl.series,
		Samples:   sl.samples,
	}
	// Wall time is sampled every statsTimeEvery-th call; scale the sampled
	// sum to the full call count (exact when every call was timed).
	if timed := sl.timed; timed > 0 && timed < o.Calls {
		o.Wall = time.Duration(float64(o.Wall) * float64(o.Calls) / float64(timed))
	}
	var buf [4]physOp
	for _, k := range opKids(op, buf[:0]) {
		o.Children = append(o.Children, st.buildOp(k))
	}
	return o
}
