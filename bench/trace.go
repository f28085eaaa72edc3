package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"dio/internal/core"
	"dio/internal/httpapi"
	"dio/internal/servecache"
	"dio/internal/tsdb"
)

// span is one timed call into a layer. ID is the span's index in the
// recorder; Parent is -1 for the root of a request. A replayed span did not
// run inside its parent: it is a timed direct call of a layer's public
// function, made after the request, on the inputs the request produced.
type span struct {
	Name     string `json:"name"`
	Trace    int    `json:"trace"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Replayed bool   `json:"replayed,omitempty"`
	// N is the work the call did, where the layer counts it: series a
	// select returned, vectors a search scanned.
	N int `json:"n,omitempty"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps the spans of a traced run in memory; switched off, it
// records nothing. The driving goroutine opens and closes spans; leaf spans
// may arrive from the query engine's worker goroutines, hence the mutex.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	cur    int // innermost open span, -1 outside a request
	traces int
	on     bool
	// quiet drops leaf spans: set while replaying a layer whose callees
	// are replayed separately, so their work is not recorded twice.
	quiet bool
}

func newRecorder() *recorder { return &recorder{origin: time.Now(), cur: -1} }

func (r *recorder) enabled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.on
}

func (r *recorder) setOn(on bool) {
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

// span runs fn inside a new span under the innermost open one and returns
// the span's ID, or -1 when nothing is recorded.
func (r *recorder) span(name string, fn func()) int {
	if !r.enabled() {
		fn()
		return -1
	}
	r.mu.Lock()
	id := r.openLocked(name, r.cur, r.cur >= 0 && r.spans[r.cur].Replayed)
	r.mu.Unlock()
	fn()
	r.close(id)
	return id
}

// replay runs fn inside a new replayed span under parent, which has ended.
// With quiet set, leaf spans arriving during fn are dropped.
func (r *recorder) replay(parent int, name string, quiet bool, fn func()) int {
	if !r.enabled() || parent < 0 {
		fn()
		return -1
	}
	r.mu.Lock()
	prev, prevQuiet := r.cur, r.quiet
	r.cur = parent
	id := r.openLocked(name, parent, true)
	r.quiet = quiet
	r.mu.Unlock()
	fn()
	r.close(id)
	r.mu.Lock()
	r.cur, r.quiet = prev, prevQuiet
	r.mu.Unlock()
	return id
}

func (r *recorder) openLocked(name string, parent int, replayed bool) int {
	id := len(r.spans)
	trace := r.traces
	if parent < 0 {
		r.traces++
		trace = r.traces
	} else {
		trace = r.spans[parent].Trace
	}
	r.spans = append(r.spans, span{Name: name, Trace: trace, ID: id, Parent: parent,
		Replayed: replayed, StartNS: int64(time.Since(r.origin))})
	r.cur = id
	return id
}

func (r *recorder) close(id int) {
	end := int64(time.Since(r.origin))
	r.mu.Lock()
	r.spans[id].EndNS = end
	r.cur = r.spans[id].Parent
	r.mu.Unlock()
}

// leaf records a finished call under the innermost open span.
func (r *recorder) leaf(name string, start time.Time, n int) {
	end := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on || r.quiet || r.cur < 0 {
		return
	}
	p := r.spans[r.cur]
	r.spans = append(r.spans, span{Name: name, Trace: p.Trace, ID: len(r.spans), Parent: r.cur,
		Replayed: p.Replayed, StartNS: int64(start.Sub(r.origin)), EndNS: int64(end.Sub(r.origin)), N: n})
}

// setN attaches a work count to a recorded span.
func (r *recorder) setN(id, n int) {
	if id < 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].N = n
	r.mu.Unlock()
}

// writeJSON writes the recorded spans to path.
func (r *recorder) writeJSON(path string) error {
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part its children cover. Children that ran inside the span
// cover the union of their intervals, so overlapping children are not
// counted twice. Replayed children ran later, one after another, so they
// cover the sum of their durations; and because they re-measure all the
// work the span called, a span that has replayed children ignores the
// others. Self time is never negative.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var replayed int64
		hasReplayed := false
		var inside [][2]int64
		for _, k := range kids[i] {
			c := spans[k]
			if c.Replayed {
				hasReplayed = true
				replayed += c.dur()
				continue
			}
			lo, hi := max(c.StartNS, s.StartNS), min(c.EndNS, s.EndNS)
			if hi > lo {
				inside = append(inside, [2]int64{lo, hi})
			}
		}
		cover := replayed
		if !hasReplayed {
			sort.Slice(inside, func(a, b int) bool { return inside[a][0] < inside[b][0] })
			var upTo int64
			for _, iv := range inside {
				if iv[1] > upTo {
					cover += iv[1] - max(iv[0], upTo)
					upTo = iv[1]
				}
			}
		}
		self[i] = max(s.dur()-cover, 0)
	}
	return self
}

// layerRow is one line of the layer ledger.
type layerRow struct {
	name   string
	calls  int
	selfMS float64
}

// ledger sums self time per span name, largest first, and returns with it
// the total duration of the root spans, in ms. A decorated span whose parent
// has replayed children is left out, as selfTimes leaves it out.
func ledger(spans []span) (rows []layerRow, rootMS float64) {
	self := selfTimes(spans)
	remeasured := make([]bool, len(spans)) // spans with replayed children
	for _, s := range spans {
		if s.Replayed && s.Parent >= 0 {
			remeasured[s.Parent] = true
		}
	}
	byName := map[string]*layerRow{}
	for i, s := range spans {
		if !s.Replayed && s.Parent >= 0 && remeasured[s.Parent] {
			continue // its work is in the ledger through a replayed sibling
		}
		row := byName[s.Name]
		if row == nil {
			row = &layerRow{name: s.Name}
			byName[s.Name] = row
		}
		row.calls++
		row.selfMS += float64(self[i]) / 1e6
		if s.Parent < 0 {
			rootMS += float64(s.dur()) / 1e6
		}
	}
	for _, row := range byName {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].selfMS != rows[b].selfMS {
			return rows[a].selfMS > rows[b].selfMS
		}
		return rows[a].name < rows[b].name
	})
	return rows, rootMS
}

// printLedger prints the ledger and, for each composite layer whose parts
// were replayed, whether the parts add up to the whole.
func printLedger(w io.Writer, workload string, spans []span) {
	rows, rootMS := ledger(spans)
	fmt.Fprintf(w, "layer ledger, %s (%d spans, %.1f ms in %s)\n", workload, len(spans), rootMS, rootSpan)
	fmt.Fprintf(w, "  %-24s %8s %12s %7s\n", "layer", "calls", "self ms", "share")
	var sum float64
	for _, row := range rows {
		sum += row.selfMS
		fmt.Fprintf(w, "  %-24s %8d %12.3f %6.1f%%\n", row.name, row.calls, row.selfMS, 100*row.selfMS/rootMS)
	}
	fmt.Fprintf(w, "  self times sum to %.1f%% of %s\n", 100*sum/rootMS, rootSpan)
	for _, whole := range []string{"core.ask", "ingest.append"} {
		verdict, ok := reconcile(spans, whole)
		if ok {
			fmt.Fprintf(w, "  %s\n", verdict)
		}
	}
}

// reconcileTolerance is how far the replayed parts of a composite layer may
// be from the whole before the ledger says so.
const reconcileTolerance = 0.15

// reconcile compares the total duration of the spans named whole with the
// total of their children. ok is false when there are no such spans.
func reconcile(spans []span, whole string) (verdict string, ok bool) {
	var wholeNS, partsNS int64
	for _, s := range spans {
		if s.Name == whole {
			wholeNS += s.dur()
		}
		if s.Parent >= 0 && spans[s.Parent].Name == whole && s.Replayed {
			partsNS += s.dur()
		}
	}
	if wholeNS == 0 {
		return "", false
	}
	ratio := float64(partsNS) / float64(wholeNS)
	word := "reconciled"
	if ratio < 1-reconcileTolerance || ratio > 1+reconcileTolerance {
		word = "UNRECONCILED"
	}
	return fmt.Sprintf("%s: replayed parts of %s sum to %.1f%% of it (tolerance %.0f%%)",
		word, whole, 100*ratio, 100*reconcileTolerance), true
}

// rootSpan names the span around Server.ServeHTTP, the root of a request.
const rootSpan = "httpapi.serve"

// timedGate records how long admission took.
type timedGate struct {
	next httpapi.Admitter
	rec  *recorder
}

func (g timedGate) Acquire(ctx context.Context) (release func(), err error) {
	start := time.Now()
	release, err = g.next.Acquire(ctx)
	g.rec.leaf("servecache.gate", start, 0)
	return release, err
}

// timedFront records the answer front's span; the pipeline's span nests in
// it through timedCompute.
type timedFront struct {
	next *servecache.Front[*core.Answer]
	rec  *recorder
}

func (f timedFront) Do(ctx context.Context, question string, bypass bool) (ans *core.Answer, st servecache.Status, err error) {
	f.rec.span("servecache.front", func() { ans, st, err = f.next.Do(ctx, question, bypass) })
	return ans, st, err
}

// computed is the last pipeline run a timedCompute saw: its span and its
// answer, the inputs of the layer replay.
type computed struct {
	span   int
	answer *core.Answer
}

// timedCompute wraps FrontConfig.Compute.
func timedCompute(rec *recorder, last *computed, next func(context.Context, string) (*core.Answer, error)) func(context.Context, string) (*core.Answer, error) {
	return func(ctx context.Context, q string) (ans *core.Answer, err error) {
		id := rec.span("core.ask", func() { ans, err = next(ctx, q) })
		*last = computed{span: id, answer: ans}
		return ans, err
	}
}

// timedStorage records every selection the query engine makes. It is valid
// at one shard, where the engine takes no *tsdb.ShardedDB fast path.
type timedStorage struct {
	tsdb.Storage
	rec *recorder
}

func (t timedStorage) Select(m []*tsdb.Matcher, ts, lookback int64) []tsdb.SeriesPoint {
	start := time.Now()
	out := t.Storage.Select(m, ts, lookback)
	t.rec.leaf("tsdb.select", start, len(out))
	return out
}

func (t timedStorage) SelectRange(m []*tsdb.Matcher, lo, hi int64) []tsdb.SeriesRange {
	start := time.Now()
	out := t.Storage.SelectRange(m, lo, hi)
	t.rec.leaf("tsdb.select", start, len(out))
	return out
}

func (t timedStorage) SelectSeries(m []*tsdb.Matcher) []tsdb.SeriesView {
	start := time.Now()
	out := t.Storage.SelectSeries(m)
	t.rec.leaf("tsdb.select", start, len(out))
	return out
}

func (t timedStorage) SelectBatch(hints []tsdb.SelectHint) [][]tsdb.SeriesView {
	start := time.Now()
	out := t.Storage.SelectBatch(hints)
	n := 0
	for _, views := range out {
		n += len(views)
	}
	t.rec.leaf("tsdb.select", start, n)
	return out
}
