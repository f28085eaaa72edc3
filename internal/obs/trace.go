package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records the ask pipeline's per-stage latencies into a
// dio_stage_duration_seconds{stage} histogram and, when capture is
// enabled, the full request-scoped trace — hierarchical spans with
// trace/span IDs and typed attributes — into a TraceStore. The
// zero tracer and nil spans are no-ops, so instrumented code never has to
// branch on whether observability is enabled.
type Tracer struct {
	stages *HistogramVec
	clock  func() time.Time
	reg    *Registry

	// Capture state (nil store disables request-scoped traces; stage
	// histograms keep working regardless).
	store       *TraceStore
	sampleEvery int64
	seen        atomic.Int64
	captured    *Counter // dio_traces_captured_total
	newID       func() string
}

// NewTracer registers the stage-duration histogram on reg. A nil clock
// uses time.Now.
func NewTracer(reg *Registry, clock func() time.Time) *Tracer {
	if clock == nil {
		clock = time.Now
	}
	return &Tracer{
		stages: reg.HistogramVec("dio_stage_duration_seconds",
			"Latency of each ask-pipeline stage (retrieve, prompt-build, llm, sandbox-exec, dashboard).",
			"seconds", DefBuckets(), "stage"),
		clock: clock,
		reg:   reg,
		newID: randomTraceID,
	}
}

// EnableCapture attaches a TraceStore: StartTrace begins recording full
// span trees into it. sampleEvery <= 1 captures every trace; n captures
// one in n (forced traces are always captured). Call before serving.
func (t *Tracer) EnableCapture(store *TraceStore, sampleEvery int) {
	if t == nil || store == nil {
		return
	}
	t.store = store
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	t.sampleEvery = int64(sampleEvery)
	t.captured = t.reg.Counter("dio_traces_captured_total",
		"Request-scoped traces captured into the in-memory trace store.", "")
}

// Store returns the attached trace store (nil when capture is off).
func (t *Tracer) Store() *TraceStore {
	if t == nil {
		return nil
	}
	return t.store
}

// SetIDGenerator overrides trace-ID generation (deterministic tests).
func (t *Tracer) SetIDGenerator(fn func() string) {
	if fn != nil {
		t.newID = fn
	}
}

// randomTraceID returns 16 hex chars of cryptographic randomness.
func randomTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// The process clock is the only entropy left; traces remain
		// usable, IDs merely become guessable.
		return fmt.Sprintf("%016x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

type tracerKey struct{}

// WithTracer returns a context carrying the tracer; StartSpan picks it up.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the tracer carried by ctx, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

type spanKey struct{}

// SpanFrom returns the span carried by ctx, or nil. All Span methods are
// safe on nil, so callers can chain without checking.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// TraceOption tunes StartTrace.
type TraceOption func(*traceStart)

type traceStart struct {
	id     string
	forced bool
}

// WithTraceID adopts a caller-supplied trace ID (propagated from an
// upstream X-DIO-Trace-ID header) instead of generating one.
func WithTraceID(id string) TraceOption {
	return func(ts *traceStart) { ts.id = id }
}

// Forced bypasses sampling and marks the trace for preferential retention
// (the explain path: the caller explicitly asked for this trace).
func Forced() TraceOption {
	return func(ts *traceStart) { ts.forced = true }
}

// StartTrace begins a request-scoped trace rooted at a span with the given
// name, carried by the returned context. It returns a nil span (and ctx
// unchanged) when the tracer is nil, capture is disabled, or sampling
// skips this request; every path downstream then degrades to the
// histogram-only StartSpan behaviour at ~zero cost.
func (t *Tracer) StartTrace(ctx context.Context, name string, opts ...TraceOption) (context.Context, *Span) {
	if t == nil || t.store == nil {
		return ctx, nil
	}
	var ts traceStart
	for _, o := range opts {
		o(&ts)
	}
	if !ts.forced && t.sampleEvery > 1 && t.seen.Add(1)%t.sampleEvery != 1 {
		return ctx, nil
	}
	id := ts.id
	if id == "" {
		id = t.newID()
	}
	tr := &activeTrace{id: id, store: t.store, forced: ts.forced, captured: t.captured}
	sp := &Span{t: t, trace: tr, name: name, start: t.clock(), root: true}
	sp.id = tr.nextSpanID()
	ctx = WithTracer(ctx, t)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// activeTrace accumulates the finished spans of one in-flight trace.
type activeTrace struct {
	id       string
	store    *TraceStore
	forced   bool
	captured *Counter

	mu       sync.Mutex
	seq      int
	finished []SpanData
}

func (tr *activeTrace) nextSpanID() string {
	tr.mu.Lock()
	tr.seq++
	seq := tr.seq
	tr.mu.Unlock()
	if seq < 10 {
		return "s0" + strconv.Itoa(seq)
	}
	return "s" + strconv.Itoa(seq)
}

// finish records one completed span; the root span closes the trace and
// offers it to the store.
func (tr *activeTrace) finish(sd SpanData, root bool) {
	tr.mu.Lock()
	tr.finished = append(tr.finished, sd)
	if !root {
		tr.mu.Unlock()
		return
	}
	spans := tr.finished
	tr.finished = nil
	tr.mu.Unlock()

	td := &TraceData{
		TraceID:    tr.id,
		Name:       sd.Name,
		Start:      sd.Start,
		DurationMS: sd.DurationMS,
		Error:      sd.Error,
		Spans:      spans,
	}
	for _, s := range spans {
		if s.Error != "" {
			td.Errored = true
			break
		}
	}
	tr.store.Add(td, tr.forced)
	if tr.captured != nil {
		tr.captured.Inc()
	}
}

// Span is one in-flight measurement: a pipeline stage (histogram-only when
// untraced) or a node of a captured trace. All methods are safe on nil
// spans and safe for concurrent use.
type Span struct {
	t      *Tracer
	trace  *activeTrace
	id     string
	parent string
	name   string
	start  time.Time
	root   bool

	mu    sync.Mutex
	attrs []Attr
	err   error
	ended bool
}

// StartSpan begins measuring the named stage as a child of the span (and
// tracer) carried by ctx, returning a derived context so nested StartSpan
// calls parent correctly. When the context carries no tracer it returns
// ctx unchanged and a nil span, whose methods are all no-ops.
func StartSpan(ctx context.Context, stage string) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	sp := &Span{t: t, name: stage, start: t.clock()}
	if parent := SpanFrom(ctx); parent != nil && parent.trace != nil {
		sp.trace = parent.trace
		sp.parent = parent.id
		sp.id = sp.trace.nextSpanID()
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// Recording reports whether attributes on this span will be captured.
// Callers use it to skip building expensive attribute values on untraced
// paths.
func (s *Span) Recording() bool { return s != nil && s.trace != nil }

// TraceID returns the ID of the trace this span belongs to ("" when the
// span is nil or untraced).
func (s *Span) TraceID() string {
	if s == nil || s.trace == nil {
		return ""
	}
	return s.trace.id
}

// SetAttr sets a typed attribute on the span, replacing any previous value
// for the key. Values must be JSON-marshalable. No-op on nil or untraced
// spans.
func (s *Span) SetAttr(key string, value any) {
	if s == nil || s.trace == nil {
		return
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetError marks the span failed; errored traces are preferentially
// retained by the store. No-op on nil/untraced spans or nil errors.
func (s *Span) SetError(err error) {
	if s == nil || s.trace == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// End records the stage duration (and, for traced spans, snapshots the
// span into its trace; the root span End closes the trace and hands it to
// the store). Safe on a nil span; idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.t.clock()
	if !s.root {
		// Root spans are named by request route or entry point, not by a
		// bounded stage vocabulary; keeping them out of the stage
		// histogram keeps its label cardinality fixed.
		s.t.stages.With(s.name).Observe(end.Sub(s.start).Seconds())
	}
	if s.trace == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	sd := SpanData{
		SpanID:     s.id,
		ParentID:   s.parent,
		Name:       s.name,
		Start:      s.start,
		DurationMS: float64(end.Sub(s.start)) / float64(time.Millisecond),
		Attrs:      s.attrs,
	}
	if s.err != nil {
		sd.Error = s.err.Error()
	}
	s.mu.Unlock()
	s.trace.finish(sd, s.root)
}
