package obs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// testTracer builds a capture-enabled tracer with a deterministic clock
// (each read advances by tick) and sequential trace IDs t01, t02, …
func testTracer(store *TraceStore, tick time.Duration) *Tracer {
	now := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	tr := NewTracer(NewRegistry(), func() time.Time {
		now = now.Add(tick)
		return now
	})
	n := 0
	tr.SetIDGenerator(func() string { n++; return fmt.Sprintf("t%02d", n) })
	tr.EnableCapture(store, 1)
	return tr
}

// TestTraceCaptureTree exercises the full capture path: nested spans with
// attrs land in the store as a correctly-parented tree.
func TestTraceCaptureTree(t *testing.T) {
	store := NewTraceStore(16, time.Second)
	tr := testTracer(store, time.Millisecond)

	ctx, root := tr.StartTrace(context.Background(), "ask")
	if !root.Recording() {
		t.Fatal("root span not recording")
	}
	root.SetAttr("question", "how many sessions?")

	sctx, sp := StartSpan(ctx, "retrieve")
	sp.SetAttr("retrieved.count", 29)
	// A nested child must parent to "retrieve", not to the root.
	_, inner := StartSpan(sctx, "embed")
	inner.End()
	sp.End()

	_, sp2 := StartSpan(ctx, "sandbox-exec")
	sp2.SetError(errors.New("boom"))
	sp2.End()

	id := root.TraceID()
	if id != "t01" {
		t.Fatalf("trace id = %q, want t01", id)
	}
	if _, ok := store.Get(id); ok {
		t.Fatal("trace visible before root End")
	}
	root.End()

	td, ok := store.Get(id)
	if !ok {
		t.Fatal("trace not stored after root End")
	}
	if !td.Errored {
		t.Error("trace with an errored span not marked Errored")
	}
	tree := td.Tree()
	if tree.Name != "ask" || len(tree.Children) != 2 {
		t.Fatalf("tree root = %s with %d children, want ask with 2", tree.Name, len(tree.Children))
	}
	if tree.Children[0].Name != "retrieve" || tree.Children[1].Name != "sandbox-exec" {
		t.Fatalf("children = %s, %s", tree.Children[0].Name, tree.Children[1].Name)
	}
	ret := tree.Children[0]
	if len(ret.Children) != 1 || ret.Children[0].Name != "embed" {
		t.Fatalf("retrieve children = %+v, want [embed]", ret.Children)
	}
	if len(ret.Attrs) != 1 || ret.Attrs[0].Key != "retrieved.count" {
		t.Errorf("retrieve attrs = %+v", ret.Attrs)
	}
	if tree.Children[1].Error != "boom" {
		t.Errorf("sandbox-exec error = %q, want boom", tree.Children[1].Error)
	}
	// Idempotent End must not re-finish the trace.
	root.End()
	if got := len(store.List("recent", 0)); got != 1 {
		t.Errorf("recent traces = %d, want 1", got)
	}
}

// TestStartSpanDerivesChildContext pins the satellite fix: StartSpan
// returns a context carrying the new span so nesting works, and untraced
// paths still get nil/no-op spans.
func TestStartSpanDerivesChildContext(t *testing.T) {
	store := NewTraceStore(4, time.Second)
	tr := testTracer(store, 0)

	ctx, root := tr.StartTrace(context.Background(), "root")
	cctx, sp := StartSpan(ctx, "stage")
	if got := SpanFrom(cctx); got != sp {
		t.Fatal("StartSpan did not put the child span on the derived context")
	}
	if got := SpanFrom(ctx); got != root {
		t.Fatal("StartSpan mutated the parent context")
	}
	sp.End()
	root.End()
	td, _ := store.Get(root.TraceID())
	var child SpanData
	for _, s := range td.Spans {
		if s.Name == "stage" {
			child = s
		}
	}
	if child.ParentID == "" || child.ParentID == child.SpanID {
		t.Errorf("child parentage broken: %+v", child)
	}

	// No tracer on the context: nil span, nil-safe methods, ctx unchanged.
	nctx, nop := StartSpan(context.Background(), "stage")
	if nop != nil || nctx != context.Background() {
		t.Fatal("untraced StartSpan should return nil span and unchanged ctx")
	}
	nop.SetAttr("k", 1)
	nop.SetError(errors.New("x"))
	nop.End()
	if nop.Recording() || nop.TraceID() != "" {
		t.Fatal("nil span must report not-recording")
	}
}

// cheapTrace records one spanless trace through tr.
func cheapTrace(tr *Tracer) string {
	_, root := tr.StartTrace(context.Background(), "cheap")
	id := root.TraceID()
	root.End()
	return id
}

// TestRingEvictionOrder fills the recent ring past capacity and checks
// oldest-first eviction with newest-first listing.
func TestRingEvictionOrder(t *testing.T) {
	store := NewTraceStore(4, time.Hour)
	tr := testTracer(store, time.Millisecond)
	var ids []string
	for i := 0; i < 6; i++ {
		ids = append(ids, cheapTrace(tr))
	}
	for _, id := range ids[:2] {
		if _, ok := store.Get(id); ok {
			t.Errorf("trace %s should have been evicted", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := store.Get(id); !ok {
			t.Errorf("trace %s missing", id)
		}
	}
	list := store.List("recent", 0)
	if len(list) != 4 {
		t.Fatalf("recent list = %d entries, want 4", len(list))
	}
	for i, want := range []string{ids[5], ids[4], ids[3], ids[2]} {
		if list[i].TraceID != want {
			t.Errorf("list[%d] = %s, want %s (newest first)", i, list[i].TraceID, want)
		}
	}
}

// TestSlowAndErroredRetention is the acceptance property: slow and errored
// traces survive 100 subsequent cheap requests that flush the recent ring.
func TestSlowAndErroredRetention(t *testing.T) {
	store := NewTraceStore(16, 50*time.Millisecond)
	// 60ms of clock movement per span read-pair makes every 1-span trace
	// "slow"… so use a per-trace knob instead: the slow trace gets extra
	// clock ticks between start and end.
	now := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	reg := NewRegistry()
	tr := NewTracer(reg, func() time.Time { return now })
	n := 0
	tr.SetIDGenerator(func() string { n++; return fmt.Sprintf("t%02d", n) })
	tr.EnableCapture(store, 1)

	// Slow trace: 80ms > 50ms threshold.
	_, slow := tr.StartTrace(context.Background(), "slow-ask")
	now = now.Add(80 * time.Millisecond)
	slow.End()
	slowID := slow.TraceID()

	// Errored trace: fast but failed.
	_, bad := tr.StartTrace(context.Background(), "bad-ask")
	bad.SetError(errors.New("exec failed"))
	bad.End()
	badID := bad.TraceID()

	for i := 0; i < 100; i++ {
		now = now.Add(time.Millisecond)
		cheapTrace(tr)
	}

	for _, id := range []string{slowID, badID} {
		if _, ok := store.Get(id); !ok {
			t.Errorf("notable trace %s evicted by cheap traffic", id)
		}
	}
	slowList := store.List("slow", 0)
	if len(slowList) != 1 || slowList[0].TraceID != slowID || !slowList[0].Slow {
		t.Errorf("slow list = %+v, want [%s]", slowList, slowID)
	}
	errList := store.List("errored", 0)
	if len(errList) != 1 || errList[0].TraceID != badID {
		t.Errorf("errored list = %+v, want [%s]", errList, badID)
	}
	if got := store.List("recent", 3); len(got) != 3 {
		t.Errorf("limited list = %d entries, want 3", len(got))
	}
}

// TestForcedRetention: explain-requested traces persist like slow ones.
func TestForcedRetention(t *testing.T) {
	store := NewTraceStore(8, time.Hour)
	tr := testTracer(store, time.Millisecond)
	_, root := tr.StartTrace(context.Background(), "explain-ask", Forced())
	id := root.TraceID()
	root.End()
	for i := 0; i < 50; i++ {
		cheapTrace(tr)
	}
	if _, ok := store.Get(id); !ok {
		t.Error("forced trace evicted by cheap traffic")
	}
}

// TestSampling: with sampleEvery=4 only one in four traces records, and
// Forced bypasses sampling.
func TestSampling(t *testing.T) {
	store := NewTraceStore(64, time.Hour)
	tr := testTracer(store, time.Millisecond)
	tr.EnableCapture(store, 4)
	captured := 0
	for i := 0; i < 16; i++ {
		_, root := tr.StartTrace(context.Background(), "req")
		if root.Recording() {
			captured++
		}
		root.End()
	}
	if captured != 4 {
		t.Errorf("captured %d of 16 at sampleEvery=4, want 4", captured)
	}
	_, forced := tr.StartTrace(context.Background(), "req", Forced())
	if !forced.Recording() {
		t.Error("Forced trace not captured under sampling")
	}
	forced.End()
}

// TestTraceIDPropagation: WithTraceID adopts the upstream ID.
func TestTraceIDPropagation(t *testing.T) {
	store := NewTraceStore(8, time.Hour)
	tr := testTracer(store, time.Millisecond)
	_, root := tr.StartTrace(context.Background(), "req", WithTraceID("upstream-42"))
	if root.TraceID() != "upstream-42" {
		t.Fatalf("trace id = %q, want upstream-42", root.TraceID())
	}
	root.End()
	if _, ok := store.Get("upstream-42"); !ok {
		t.Error("adopted-ID trace not stored")
	}
}

// TestConcurrentCapture hammers one tracer and store from many goroutines
// under -race: concurrent traces, concurrent spans within one trace, and
// concurrent readers.
func TestConcurrentCapture(t *testing.T) {
	store := NewTraceStore(32, time.Hour)
	tr := NewTracer(NewRegistry(), nil)
	tr.EnableCapture(store, 1)

	const goroutines = 8
	const traces = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < traces; i++ {
				ctx, root := tr.StartTrace(context.Background(), "load")
				var inner sync.WaitGroup
				for s := 0; s < 3; s++ {
					inner.Add(1)
					go func(s int) {
						defer inner.Done()
						_, sp := StartSpan(ctx, "stage")
						sp.SetAttr("worker", s)
						root.SetAttr("shared", s)
						sp.End()
					}(s)
				}
				inner.Wait()
				root.End()
				if i%10 == 0 {
					store.List("recent", 5)
					store.Get(root.TraceID())
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(store.List("recent", 0)); got != 32 {
		t.Errorf("recent ring holds %d, want full 32", got)
	}
}

// TestFormatTrace smoke-tests the -explain rendering.
func TestFormatTrace(t *testing.T) {
	store := NewTraceStore(8, time.Hour)
	tr := testTracer(store, time.Millisecond)
	ctx, root := tr.StartTrace(context.Background(), "ask")
	root.SetAttr("question", "q?")
	_, sp := StartSpan(ctx, "retrieve")
	sp.SetAttr("retrieved.count", 2)
	sp.End()
	root.End()
	td, _ := store.Get(root.TraceID())
	out := FormatTrace(td)
	for _, want := range []string{"trace t01", "ask", "question: q?", "- retrieve", "retrieved.count: 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTrace output missing %q:\n%s", want, out)
		}
	}
}
