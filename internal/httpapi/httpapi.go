// Package httpapi exposes the copilot over HTTP: the message-bar ask
// endpoint of Figure 1b, a Prometheus-compatible query API over the
// operator TSDB, catalog search, and the expert-feedback endpoints.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"dio/internal/core"
	"dio/internal/dashboard"
	"dio/internal/feedback"
	"dio/internal/ingest"
	"dio/internal/obs"
	"dio/internal/promql"
	"dio/internal/sandbox"
	"dio/internal/servecache"
	"dio/internal/tenant"
)

// TraceIDHeader carries the request trace ID in both directions: clients
// may supply one to adopt, and every traced response returns the ID that
// /debug/traces/{id} resolves.
const TraceIDHeader = "X-DIO-Trace-ID"

// CacheHeader reports how POST /api/v1/ask resolved the answer: "hit"
// (served from the answer cache, including coalesced singleflight
// followers), "miss" (computed and cached), or "bypass" (nocache/explain
// request, or no serving layer attached).
const CacheHeader = "X-DIO-Cache"

// TenantHeader names the requesting tenant. Requests without it (and
// without a mapped bearer token) run as the default tenant, reproducing
// the pre-tenancy behaviour exactly. The value is normalized (lowercased,
// restricted charset, bounded length) before use.
const TenantHeader = "X-DIO-Tenant"

// AnswerFront is the answer-cache surface the ask path serves through: a
// *servecache.Front, or bench/'s tracing decorator around one.
type AnswerFront interface {
	Do(ctx context.Context, question string, bypass bool) (*core.Answer, servecache.Status, error)
}

// Admitter is the admission-control surface bounding concurrent answer
// computations (servecache.FairGate in production).
type Admitter interface {
	Acquire(ctx context.Context) (release func(), err error)
}

// Server wires the copilot, executor and feedback tracker into an
// http.Handler.
type Server struct {
	copilot *core.Copilot
	tracker *feedback.Tracker
	logger  *slog.Logger
	mux     *http.ServeMux

	// registry is the self-observability registry served at GET /metrics
	// (nil when observability is off).
	registry *obs.Registry
	requests *obs.CounterVec   // dio_http_requests_total{route,code}
	duration *obs.HistogramVec // dio_http_request_duration_seconds{route}

	// tracer/traces enable request-scoped capture and the /debug/traces
	// endpoints (nil when tracing is off).
	tracer *obs.Tracer
	traces *obs.TraceStore

	// front/gate form the serving-throughput layer (nil when off): the
	// answer cache with singleflight in front of Ask, and the admission
	// gate bounding concurrent answer computations.
	front AnswerFront
	gate  Admitter

	// tenantTokens maps bearer tokens to tenant IDs (nil disables
	// token-based tenant mapping).
	tenantTokens map[string]string

	// ingest is the durable WAL-backed store behind POST /api/v1/write
	// (nil when the server runs memory-only).
	ingest *ingest.Store

	// qlog/activeq serve the query-profiling endpoints /debug/queries and
	// /debug/queries/slow (nil when query observability is off).
	qlog    *obs.QueryLog
	activeq *obs.ActiveQueryTracker
}

// Option configures optional server features.
type Option func(*Server)

// WithMetrics attaches the self-observability registry: GET /metrics
// serves its Prometheus exposition and every request is counted and timed
// per route.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) {
		s.registry = reg
		s.requests = reg.CounterVec("dio_http_requests_total",
			"HTTP requests served, by route pattern and status code.", "", "route", "code")
		s.duration = reg.HistogramVec("dio_http_request_duration_seconds",
			"HTTP request latency by route pattern.", "seconds", obs.DefBuckets(), "route")
	}
}

// WithTracing attaches a capture-enabled tracer: requests are traced
// (subject to the tracer's sampling), trace IDs propagate through the
// X-DIO-Trace-ID header, and GET /debug/traces[/{id}] serve the store.
func WithTracing(tr *obs.Tracer) Option {
	return func(s *Server) {
		s.tracer = tr
		s.traces = tr.Store()
	}
}

// WithServingLayer attaches the serving-throughput layer: ask answers are
// served through the cache/singleflight front, and the admission gate
// bounds how many answers compute concurrently (overload sheds with
// 429). Either may be a nil interface to enable just one half.
func WithServingLayer(front AnswerFront, gate Admitter) Option {
	return func(s *Server) {
		if front != nil {
			s.front = front
		}
		if gate != nil {
			s.gate = gate
		}
	}
}

// WithTenantTokens maps bearer tokens to tenant IDs: a request carrying
// "Authorization: Bearer <token>" (and no explicit tenant header) runs as
// the mapped tenant. Tenant IDs are normalized at registration.
func WithTenantTokens(tokens map[string]string) Option {
	return func(s *Server) {
		if len(tokens) == 0 {
			return
		}
		s.tenantTokens = make(map[string]string, len(tokens))
		for tok, id := range tokens {
			s.tenantTokens[tok] = tenant.Normalize(id)
		}
	}
}

// WithQueryObservability attaches the slow-query log and the active-query
// tracker: GET /debug/queries lists in-flight queries and
// GET /debug/queries/slow the slowest/heaviest finished ones. Either may
// be nil to expose just one view. The caller wires the same instances
// into the executor (Executor.ObserveQueries) so the engine feeds them.
func WithQueryObservability(qlog *obs.QueryLog, tracker *obs.ActiveQueryTracker) Option {
	return func(s *Server) {
		s.qlog = qlog
		s.activeq = tracker
	}
}

// WithPprof mounts net/http/pprof under /debug/pprof/ (behind the server's
// -debug flag; not meant for unauthenticated production exposure).
func WithPprof() Option {
	return func(s *Server) {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// New assembles the server. logger may be nil to disable request logs.
func New(cp *core.Copilot, tracker *feedback.Tracker, logger *slog.Logger, opts ...Option) *Server {
	s := &Server{copilot: cp, tracker: tracker, logger: logger, mux: http.NewServeMux()}
	// Audit every query the service executes (§5.4 safety).
	if cp.Executor().Audit() == nil {
		cp.Executor().SetAudit(sandbox.NewAuditLog(4096, nil))
	}
	s.mux.HandleFunc("GET /api/v1/audit", s.handleAudit)
	s.mux.HandleFunc("GET /debug/plan", s.handlePlan)
	s.mux.HandleFunc("GET /debug/queries", s.handleQueriesActive)
	s.mux.HandleFunc("GET /debug/queries/slow", s.handleQueriesSlow)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraceList)
	s.mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceGet)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleExposition)
	s.mux.HandleFunc("POST /api/v1/ask", s.handleAsk)
	s.mux.HandleFunc("GET /api/v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /api/v1/query_range", s.handleQueryRange)
	s.mux.HandleFunc("GET /api/v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /api/v1/feedback", s.handleFeedbackList)
	s.mux.HandleFunc("POST /api/v1/feedback", s.handleFeedbackOpen)
	s.mux.HandleFunc("POST /api/v1/feedback/{id}/resolve", s.handleFeedbackResolve)
	s.mux.HandleFunc("POST /api/v1/feedback/{id}/propose", s.handleProposalOpen)
	s.mux.HandleFunc("GET /api/v1/proposals", s.handleProposalList)
	s.mux.HandleFunc("POST /api/v1/proposals/{id}/vote", s.handleProposalVote)
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// statusWriter captures the status code written by a handler.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// tenantFor resolves the requesting tenant: the explicit tenant header
// first, then a mapped bearer token, else the default tenant.
func (s *Server) tenantFor(r *http.Request) string {
	if id := tenant.Normalize(r.Header.Get(TenantHeader)); id != "" {
		return id
	}
	if s.tenantTokens != nil {
		if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
			if id, ok := s.tenantTokens[strings.TrimPrefix(auth, "Bearer ")]; ok && id != "" {
				return id
			}
		}
	}
	return tenant.Default
}

// traceable reports whether requests on path get a request-scoped trace.
// Introspection and exposition endpoints are excluded: tracing the trace
// reader would fill the store with its own reads.
func traceable(path string) bool {
	return path != "/metrics" && !strings.HasPrefix(path, "/debug/")
}

// ServeHTTP implements http.Handler: it routes through the mux wrapped in
// the tracing/status/duration middleware, logs the completed request, and
// counts it per route pattern.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Resolve the route pattern before serving so metrics and trace roots
	// label by the registered pattern ("POST /api/v1/ask"), not the raw
	// (unbounded-cardinality) URL path.
	_, route := s.mux.Handler(r)
	if route == "" {
		route = "unmatched"
	}
	// Tenant identity is stamped before the trace starts so every span,
	// cache lookup, admission decision and query-log entry below sees it.
	tid := s.tenantFor(r)
	if tid != tenant.Default {
		r = r.WithContext(tenant.WithID(r.Context(), tid))
	}
	var root *obs.Span
	if s.tracer != nil && traceable(r.URL.Path) {
		var opts []obs.TraceOption
		if id := r.Header.Get(TraceIDHeader); id != "" {
			opts = append(opts, obs.WithTraceID(id))
		}
		ctx, sp := s.tracer.StartTrace(r.Context(), route, opts...)
		if sp.Recording() {
			root = sp
			sp.SetAttr("http.method", r.Method)
			sp.SetAttr("http.path", r.URL.Path)
			if tid != tenant.Default {
				sp.SetAttr("tenant", tid)
			}
			w.Header().Set(TraceIDHeader, sp.TraceID())
			r = r.WithContext(ctx)
		}
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	started := time.Now()
	s.mux.ServeHTTP(sw, r)
	elapsed := time.Since(started)
	root.SetAttr("http.status", sw.status)
	if sw.status >= http.StatusInternalServerError {
		root.SetError(fmt.Errorf("HTTP %d", sw.status))
	}
	root.End()
	if s.logger != nil {
		args := []any{"method", r.Method, "path", r.URL.Path,
			"status", sw.status, "duration", elapsed.Round(time.Millisecond).String()}
		if id := root.TraceID(); id != "" {
			args = append(args, "trace_id", id)
		}
		s.logger.Info("request", args...)
	}
	if s.requests != nil {
		s.requests.With(route, strconv.Itoa(sw.status)).Inc()
		s.duration.With(route).Observe(elapsed.Seconds())
	}
}

// defaultTraceListLimit bounds GET /debug/traces responses when the
// client sends no ?limit: the store holds hundreds of traces and an
// unbounded listing made the endpoint unusable from a terminal.
const defaultTraceListLimit = 50

// handleTraceList serves GET /debug/traces: recent captured traces, newest
// first. ?filter=recent|slow|errored|notable selects the view, ?limit=N
// bounds it (default 50; 0 means unlimited).
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		s.writeErr(w, http.StatusNotImplemented, errors.New("trace capture is not enabled"))
		return
	}
	limit := defaultTraceListLimit
	if lv := r.URL.Query().Get("limit"); lv != "" {
		n, err := strconv.Atoi(lv)
		if err != nil || n < 0 {
			s.writeErr(w, http.StatusBadRequest, errors.New("bad limit"))
			return
		}
		limit = n
	}
	list := s.traces.List(r.URL.Query().Get("filter"), limit)
	if list == nil {
		list = []obs.TraceSummary{}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"status": "success", "traces": list})
}

// traceDetail is the GET /debug/traces/{id} wire shape: the trace identity
// plus its span tree.
type traceDetail struct {
	Status     string        `json:"status"`
	TraceID    string        `json:"trace_id"`
	Name       string        `json:"name"`
	Start      time.Time     `json:"start"`
	DurationMS float64       `json:"duration_ms"`
	Error      string        `json:"error,omitempty"`
	Errored    bool          `json:"errored"`
	Spans      int           `json:"spans"`
	Tree       *obs.SpanTree `json:"tree"`
}

func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		s.writeErr(w, http.StatusNotImplemented, errors.New("trace capture is not enabled"))
		return
	}
	id := r.PathValue("id")
	td, ok := s.traces.Get(id)
	if !ok {
		s.writeErr(w, http.StatusNotFound, fmt.Errorf("unknown trace %q", id))
		return
	}
	s.writeJSON(w, http.StatusOK, traceDetail{
		Status: "success", TraceID: td.TraceID, Name: td.Name, Start: td.Start,
		DurationMS: td.DurationMS, Error: td.Error, Errored: td.Errored,
		Spans: len(td.Spans), Tree: td.Tree(),
	})
}

// handlePlan serves GET /debug/plan?query=…: the optimized execution plan
// the engine compiles for the query, rendered as an operator tree with the
// optimizer passes that applied. The plan comes from the same per-engine
// cache the executor uses, so what this endpoint shows is what runs.
// ?analyze=true executes the query and annotates every operator with its
// measured wall time, series and sample counts (EXPLAIN ANALYZE).
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("query")
	if q == "" {
		s.writeErr(w, http.StatusBadRequest, errors.New("query parameter is required"))
		return
	}
	analyze := false
	if av := r.URL.Query().Get("analyze"); av != "" {
		b, err := strconv.ParseBool(av)
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad analyze: %w", err))
			return
		}
		analyze = b
	}
	var (
		plan string
		err  error
	)
	if analyze {
		plan, err = s.copilot.ExplainAnalyzeQuery(r.Context(), q)
	} else {
		plan, err = s.copilot.ExplainQuery(q)
	}
	if err != nil {
		s.writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status": "success", "query": q, "analyzed": analyze, "plan": plan,
	})
}

// activeQueryWire is one GET /debug/queries row.
type activeQueryWire struct {
	Query     string    `json:"query"`
	Kind      string    `json:"kind,omitempty"`
	TraceID   string    `json:"trace_id,omitempty"`
	Start     time.Time `json:"start"`
	ElapsedMS float64   `json:"elapsed_ms"`
}

// handleQueriesActive serves GET /debug/queries: the queries in flight
// right now, oldest first, with the tracker's slot bound.
func (s *Server) handleQueriesActive(w http.ResponseWriter, _ *http.Request) {
	if s.activeq == nil {
		s.writeErr(w, http.StatusNotImplemented, errors.New("query observability is not enabled"))
		return
	}
	now := time.Now()
	active := s.activeq.Active()
	out := make([]activeQueryWire, 0, len(active))
	for _, e := range active {
		out = append(out, activeQueryWire{
			Query: e.Query, Kind: e.Kind, TraceID: e.TraceID, Start: e.Start,
			ElapsedMS: float64(now.Sub(e.Start)) / float64(time.Millisecond),
		})
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status": "success", "active": out, "max_slots": s.activeq.MaxSlots(),
	})
}

// queryLogWire is one GET /debug/queries/slow row.
type queryLogWire struct {
	Query      string    `json:"query"`
	Kind       string    `json:"kind"`
	Tenant     string    `json:"tenant,omitempty"`
	TraceID    string    `json:"trace_id,omitempty"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Samples    int64     `json:"samples"`
	Steps      int       `json:"steps,omitempty"`
	Slow       bool      `json:"slow"`
	Error      string    `json:"error,omitempty"`
	Plan       string    `json:"plan,omitempty"`
}

func queryLogRows(entries []obs.QueryLogEntry) []queryLogWire {
	out := make([]queryLogWire, 0, len(entries))
	for _, e := range entries {
		tid := e.Tenant
		if tid == tenant.Default {
			tid = "" // omitted on the wire; pre-tenancy rows stay byte-identical
		}
		out = append(out, queryLogWire{
			Query: e.Query, Kind: e.Kind, Tenant: tid, TraceID: e.TraceID, Start: e.Start,
			DurationMS: float64(e.Duration) / float64(time.Millisecond),
			Samples:    e.Samples, Steps: e.Steps, Slow: e.Slow,
			Error: e.Err, Plan: e.Plan,
		})
	}
	return out
}

// handleQueriesSlow serves GET /debug/queries/slow: the slow-query log's
// two rings — slowest by wall-clock duration and heaviest by stored
// samples touched — each row carrying the compact analyzed plan and trace
// ID for follow-up at /debug/traces/{id} and /debug/plan?analyze=true.
func (s *Server) handleQueriesSlow(w http.ResponseWriter, _ *http.Request) {
	if s.qlog == nil {
		s.writeErr(w, http.StatusNotImplemented, errors.New("query observability is not enabled"))
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":       "success",
		"threshold_ms": float64(s.qlog.Threshold()) / float64(time.Millisecond),
		"slowest":      queryLogRows(s.qlog.Slowest()),
		"heaviest":     queryLogRows(s.qlog.Heaviest()),
	})
}

// handleExposition serves the Prometheus text exposition of the attached
// registry.
func (s *Server) handleExposition(w http.ResponseWriter, _ *http.Request) {
	if s.registry == nil {
		s.writeErr(w, http.StatusNotImplemented, errors.New("self-observability is not enabled"))
		return
	}
	w.Header().Set("Content-Type", obs.TextContentType)
	if err := s.registry.FormatText(w); err != nil && s.logger != nil {
		s.logger.Error("metrics exposition failed", "err", err)
	}
}

// apiError is the JSON error envelope.
type apiError struct {
	Status string `json:"status"`
	Error  string `json:"error"`
}

// writeJSON writes v as the response body. The status is already on the
// wire if encoding fails, so the error can only be surfaced in the server
// log — but it must be surfaced, not discarded: a marshalling bug would
// otherwise produce silently truncated responses.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil && s.logger != nil {
		s.logger.Error("writeJSON encoding failed", "type", fmt.Sprintf("%T", v), "err", err)
	}
}

func (s *Server) writeErr(w http.ResponseWriter, code int, err error) {
	s.writeJSON(w, code, apiError{Status: "error", Error: err.Error()})
}

// maxJSONBody bounds the JSON body of every POST route but /api/v1/write
// (which has its own, larger limit): a question, a contribution or a vote
// is a few hundred bytes.
const maxJSONBody = 1 << 20

// decodeJSON decodes the request's JSON body into v, reading at most
// maxJSONBody bytes of it. On failure it answers — 413 for an oversized
// body, 400 for anything else — and reports false. A body whose declared
// length is already over the limit is refused unread; MaxBytesReader
// stops the ones that declare none (chunked) or lie.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	var err error = &http.MaxBytesError{Limit: maxJSONBody}
	if r.ContentLength <= maxJSONBody {
		err = json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody)).Decode(v)
	}
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	s.writeErr(w, code, fmt.Errorf("bad request body: %w", err))
	return false
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// askRequest is the POST /api/v1/ask body. Explain forces trace capture
// for this request (bypassing sampling) so the returned trace_id is
// guaranteed to resolve at /debug/traces/{id}. Analyze additionally
// profiles the generated query's execution and returns the EXPLAIN
// ANALYZE plan in analyzed_plan (implies a cache bypass — a cached
// answer carries no fresh execution to profile). NoCache skips the
// answer cache for this request (the response still computes fresh and
// is not stored).
type askRequest struct {
	Question string `json:"question"`
	Explain  bool   `json:"explain,omitempty"`
	Analyze  bool   `json:"analyze,omitempty"`
	NoCache  bool   `json:"nocache,omitempty"`
}

// askResponse mirrors core.Answer in wire form.
type askResponse struct {
	Status    string               `json:"status"`
	Question  string               `json:"question"`
	Task      string               `json:"task"`
	Metrics   []askMetric          `json:"metrics"`
	Query     string               `json:"query"`
	Answer    string               `json:"answer"`
	ExecError string               `json:"exec_error,omitempty"`
	Dashboard *dashboard.Dashboard `json:"dashboard,omitempty"`
	CostCents float64              `json:"cost_cents"`
	TraceID   string               `json:"trace_id,omitempty"`
	// AnalyzedPlan carries the per-operator execution profile of the
	// generated query when the request set analyze.
	AnalyzedPlan string `json:"analyzed_plan,omitempty"`
}

type askMetric struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
}

// admit takes an admission-gate slot before an answer computation, or
// sheds the request: 429 with a quota-aware Retry-After when the tenant's
// rate quota is exhausted or the queue wait expires, 503 when the client
// context dies while queued. The release func must be called once the
// computation finishes; ok=false means the response is already written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if s.gate == nil {
		return func() {}, true
	}
	release, err := s.gate.Acquire(r.Context())
	if err != nil {
		obs.SpanFrom(r.Context()).SetError(err)
		if errors.Is(err, servecache.ErrOverloaded) || errors.Is(err, servecache.ErrQuotaExceeded) {
			w.Header().Set("Retry-After", retryAfter(err))
			s.writeErr(w, http.StatusTooManyRequests, err)
		} else {
			s.writeErr(w, http.StatusServiceUnavailable, err)
		}
		return nil, false
	}
	return release, true
}

// retryAfter renders the Retry-After header for a shed: the gate's
// estimate of when the tenant's token bucket refills (or the queue
// drains), in whole seconds rounded up, minimum 1.
func retryAfter(err error) string {
	var shed *servecache.ShedError
	if errors.As(err, &shed) && shed.RetryAfter > 0 {
		secs := int64(math.Ceil(shed.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		return strconv.FormatInt(secs, 10)
	}
	return "1"
}

func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request) {
	var req askRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Question) == "" {
		s.writeErr(w, http.StatusBadRequest, errors.New("question is required"))
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	ctx := r.Context()
	if req.Analyze {
		ctx = core.WithAnalyze(ctx)
	}
	// The middleware starts traces before the body is readable, so an
	// explain request that sampling skipped starts its own forced trace
	// here (forced traces also get notable retention).
	if req.Explain && s.tracer != nil && !obs.SpanFrom(ctx).Recording() {
		var root *obs.Span
		ctx, root = s.tracer.StartTrace(ctx, "POST /api/v1/ask", obs.Forced())
		if root.Recording() {
			root.SetAttr("http.method", r.Method)
			root.SetAttr("http.path", r.URL.Path)
			w.Header().Set(TraceIDHeader, root.TraceID())
			defer root.End()
		}
	}
	var (
		ans    *core.Answer
		status = servecache.StatusBypass
		err    error
	)
	if s.front != nil {
		// Explain and analyze requests bypass: a cached answer's trace_id
		// points at the original computation, and an analyzed plan only
		// exists for a fresh execution.
		ans, status, err = s.front.Do(ctx, req.Question, req.NoCache || req.Explain || req.Analyze)
	} else {
		ans, err = s.copilot.Ask(ctx, req.Question)
	}
	if cached := status == servecache.StatusHit || status == servecache.StatusCoalesced; cached {
		w.Header().Set(CacheHeader, "hit")
	} else if status == servecache.StatusMiss {
		w.Header().Set(CacheHeader, "miss")
	} else {
		w.Header().Set(CacheHeader, "bypass")
	}
	if err != nil {
		obs.SpanFrom(ctx).SetError(err)
		s.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	resp := askResponse{
		Status: "success", Question: ans.Question, Task: ans.Task.String(),
		Query: ans.Query, Answer: ans.ValueText, Dashboard: ans.Dashboard,
		CostCents: ans.CostCents, TraceID: ans.TraceID,
		AnalyzedPlan: ans.AnalyzedPlan,
	}
	if ans.ExecErr != nil {
		resp.ExecError = ans.ExecErr.Error()
	}
	for _, m := range ans.Metrics {
		resp.Metrics = append(resp.Metrics, askMetric{Name: m.Name, Description: m.Description})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// queryData is the Prometheus-style result envelope.
type queryData struct {
	Status string `json:"status"`
	Data   struct {
		ResultType string `json:"resultType"`
		Result     any    `json:"result"`
	} `json:"data"`
}

// wireVector marshals an instant vector in Prometheus wire form.
func wireVector(v promql.Vector) []map[string]any {
	out := make([]map[string]any, 0, len(v))
	for _, s := range v {
		out = append(out, map[string]any{
			"metric": s.Labels.Map(),
			"value":  [2]any{float64(s.T) / 1000, strconv.FormatFloat(s.V, 'g', -1, 64)},
		})
	}
	return out
}

func wireMatrix(m promql.Matrix) []map[string]any {
	out := make([]map[string]any, 0, len(m))
	for _, s := range m {
		values := make([][2]any, 0, len(s.Samples))
		for _, smp := range s.Samples {
			values = append(values, [2]any{float64(smp.T) / 1000, strconv.FormatFloat(smp.V, 'g', -1, 64)})
		}
		out = append(out, map[string]any{"metric": s.Labels.Map(), "values": values})
	}
	return out
}

// parseTime accepts RFC3339 or Unix seconds; zero value means defaultT.
func parseTime(s string, defaultT time.Time) (time.Time, error) {
	if s == "" {
		return defaultT, nil
	}
	if ts, err := strconv.ParseFloat(s, 64); err == nil {
		return time.UnixMilli(int64(ts * 1000)), nil
	}
	return time.Parse(time.RFC3339, s)
}

// latest returns the newest sample instant in the store.
func (s *Server) latest() time.Time {
	if _, maxT, ok := s.copilot.Executor().Engine().DB().TimeRange(); ok {
		return time.UnixMilli(maxT)
	}
	return time.Unix(0, 0)
}

// defaultEvalTime resolves the default evaluation instant for query: the
// newest sample among the metrics it selects, falling back to the
// store-wide newest sample. The store mixes timelines once self-scraping
// is on (the operator trace is frozen while dio_* series advance at wall
// clock), so "now" must follow the data actually being queried. Parse
// errors fall through to the sandbox, which reports them properly.
func (s *Server) defaultEvalTime(query string) time.Time {
	expr, err := promql.Parse(query)
	if err != nil {
		return s.latest()
	}
	db := s.copilot.Executor().Engine().DB()
	var newest int64
	found := false
	promql.Walk(expr, func(n promql.Expr) {
		vs, ok := n.(*promql.VectorSelector)
		if !ok || vs.Name == "" {
			return
		}
		if _, maxT, ok := db.MetricTimeRange(vs.Name); ok && (!found || maxT > newest) {
			newest, found = maxT, true
		}
	})
	if found {
		return time.UnixMilli(newest)
	}
	return s.latest()
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("query")
	if q == "" {
		s.writeErr(w, http.StatusBadRequest, errors.New("query parameter is required"))
		return
	}
	ts, err := parseTime(r.URL.Query().Get("time"), s.defaultEvalTime(q))
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad time: %w", err))
		return
	}
	v, err := s.copilot.Executor().Execute(r.Context(), q, ts)
	if err != nil {
		code := http.StatusUnprocessableEntity
		if errors.Is(err, sandbox.ErrRejected) {
			code = http.StatusForbidden
		}
		s.writeErr(w, code, err)
		return
	}
	var resp queryData
	resp.Status = "success"
	switch x := v.(type) {
	case promql.Scalar:
		resp.Data.ResultType = "scalar"
		resp.Data.Result = [2]any{float64(x.T) / 1000, strconv.FormatFloat(x.V, 'g', -1, 64)}
	case promql.Vector:
		resp.Data.ResultType = "vector"
		resp.Data.Result = wireVector(x)
	case promql.Matrix:
		resp.Data.ResultType = "matrix"
		resp.Data.Result = wireMatrix(x)
	default:
		resp.Data.ResultType = "string"
		resp.Data.Result = promql.FormatValue(v)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleQueryRange(w http.ResponseWriter, r *http.Request) {
	qv := r.URL.Query()
	q := qv.Get("query")
	if q == "" {
		s.writeErr(w, http.StatusBadRequest, errors.New("query parameter is required"))
		return
	}
	end, err := parseTime(qv.Get("end"), s.defaultEvalTime(q))
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad end: %w", err))
		return
	}
	start, err := parseTime(qv.Get("start"), end.Add(-time.Hour))
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad start: %w", err))
		return
	}
	step := time.Minute
	if sv := qv.Get("step"); sv != "" {
		d, err := promql.ParseDuration(sv)
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad step: %w", err))
			return
		}
		step = d
	}
	m, err := s.copilot.Executor().ExecuteRange(r.Context(), q, start, end, step)
	if err != nil {
		s.writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	var resp queryData
	resp.Status = "success"
	resp.Data.ResultType = "matrix"
	resp.Data.Result = wireMatrix(m)
	s.writeJSON(w, http.StatusOK, resp)
}

// metricInfo is the catalog search result row.
type metricInfo struct {
	Name        string `json:"name"`
	NF          string `json:"nf"`
	Type        string `json:"type"`
	Description string `json:"description"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	q := strings.ToLower(r.URL.Query().Get("q"))
	limit := 50
	if lv := r.URL.Query().Get("limit"); lv != "" {
		if n, err := strconv.Atoi(lv); err == nil && n > 0 {
			limit = n
		}
	}
	var out []metricInfo
	for _, m := range s.copilot.Catalog().MetricsSnapshot() {
		if q != "" && !strings.Contains(strings.ToLower(m.Name), q) &&
			!strings.Contains(strings.ToLower(m.Description), q) {
			continue
		}
		out = append(out, metricInfo{Name: m.Name, NF: m.NF, Type: m.Type.String(), Description: m.Description})
		if len(out) >= limit {
			break
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"status": "success", "metrics": out})
}

func (s *Server) handleFeedbackList(w http.ResponseWriter, _ *http.Request) {
	if s.tracker == nil {
		s.writeErr(w, http.StatusNotImplemented, errors.New("feedback is not enabled"))
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"status": "success", "issues": s.tracker.List(-1)})
}

// feedbackOpenRequest is the POST /api/v1/feedback body: re-ask the
// question and open an issue from the copilot's own answer (the
// raised-hand button of §3.4).
type feedbackOpenRequest struct {
	Question string `json:"question"`
}

func (s *Server) handleFeedbackOpen(w http.ResponseWriter, r *http.Request) {
	if s.tracker == nil {
		s.writeErr(w, http.StatusNotImplemented, errors.New("feedback is not enabled"))
		return
	}
	var req feedbackOpenRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Question) == "" {
		s.writeErr(w, http.StatusBadRequest, errors.New("question is required"))
		return
	}
	// Feedback re-asks run the full pipeline too, so they compete for the
	// same admission slots as /api/v1/ask.
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	ans, err := s.copilot.Ask(r.Context(), req.Question)
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	issue := feedback.OpenFromAnswer(s.tracker, ans)
	s.writeJSON(w, http.StatusCreated, map[string]any{"status": "success", "issue": issue})
}

// resolveRequest is the POST /api/v1/feedback/{id}/resolve body.
type resolveRequest struct {
	Expert       string `json:"expert"`
	MetricName   string `json:"metric_name"`
	Description  string `json:"description"`
	FunctionName string `json:"function_name,omitempty"`
	FunctionTmpl string `json:"function_template,omitempty"`
	FunctionArgs int    `json:"function_arity,omitempty"`
}

func (s *Server) handleFeedbackResolve(w http.ResponseWriter, r *http.Request) {
	if s.tracker == nil {
		s.writeErr(w, http.StatusNotImplemented, errors.New("feedback is not enabled"))
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad issue id: %w", err))
		return
	}
	var req resolveRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	err = s.tracker.Resolve(id, req.Expert, feedback.Contribution{
		MetricName: req.MetricName, Description: req.Description,
		FunctionName: req.FunctionName, FunctionTemplate: req.FunctionTmpl,
		FunctionArity: req.FunctionArgs,
	})
	switch {
	case errors.Is(err, feedback.ErrUnknownIssue):
		s.writeErr(w, http.StatusNotFound, err)
	case errors.Is(err, feedback.ErrNotExpert):
		s.writeErr(w, http.StatusForbidden, err)
	case err != nil:
		s.writeErr(w, http.StatusBadRequest, err)
	default:
		issue, _ := s.tracker.Get(id)
		s.writeJSON(w, http.StatusOK, map[string]any{"status": "success", "issue": issue})
	}
}

// proposeRequest is the POST /api/v1/feedback/{id}/propose body: a
// community contribution awaiting expert votes (the Stack Overflow-style
// mechanism of §3.4's future work).
type proposeRequest struct {
	Author       string `json:"author"`
	MetricName   string `json:"metric_name"`
	Description  string `json:"description"`
	FunctionName string `json:"function_name,omitempty"`
	FunctionTmpl string `json:"function_template,omitempty"`
	FunctionArgs int    `json:"function_arity,omitempty"`
}

func (s *Server) handleProposalOpen(w http.ResponseWriter, r *http.Request) {
	if s.tracker == nil {
		s.writeErr(w, http.StatusNotImplemented, errors.New("feedback is not enabled"))
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad issue id: %w", err))
		return
	}
	var req proposeRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	p, err := s.tracker.Propose(id, req.Author, feedback.Contribution{
		MetricName: req.MetricName, Description: req.Description,
		FunctionName: req.FunctionName, FunctionTemplate: req.FunctionTmpl,
		FunctionArity: req.FunctionArgs,
	})
	switch {
	case errors.Is(err, feedback.ErrUnknownIssue):
		s.writeErr(w, http.StatusNotFound, err)
	case err != nil:
		s.writeErr(w, http.StatusBadRequest, err)
	default:
		s.writeJSON(w, http.StatusCreated, map[string]any{"status": "success", "proposal": p})
	}
}

func (s *Server) handleProposalList(w http.ResponseWriter, r *http.Request) {
	if s.tracker == nil {
		s.writeErr(w, http.StatusNotImplemented, errors.New("feedback is not enabled"))
		return
	}
	issueID := -1
	if v := r.URL.Query().Get("issue"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad issue filter: %w", err))
			return
		}
		issueID = n
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"status": "success", "proposals": s.tracker.Proposals(issueID)})
}

// voteRequest is the POST /api/v1/proposals/{id}/vote body.
type voteRequest struct {
	Expert string `json:"expert"`
	Up     bool   `json:"up"`
}

func (s *Server) handleProposalVote(w http.ResponseWriter, r *http.Request) {
	if s.tracker == nil {
		s.writeErr(w, http.StatusNotImplemented, errors.New("feedback is not enabled"))
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad proposal id: %w", err))
		return
	}
	var req voteRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	err = s.tracker.Vote(id, req.Expert, req.Up)
	switch {
	case errors.Is(err, feedback.ErrUnknownProposal):
		s.writeErr(w, http.StatusNotFound, err)
	case errors.Is(err, feedback.ErrNotExpert), errors.Is(err, feedback.ErrSelfVote):
		s.writeErr(w, http.StatusForbidden, err)
	case err != nil:
		s.writeErr(w, http.StatusBadRequest, err)
	default:
		s.writeJSON(w, http.StatusOK, map[string]any{"status": "success"})
	}
}

// handleAudit returns the sandbox's query audit log, newest last.
func (s *Server) handleAudit(w http.ResponseWriter, _ *http.Request) {
	a := s.copilot.Executor().Audit()
	if a == nil {
		s.writeErr(w, http.StatusNotImplemented, errors.New("auditing is not enabled"))
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"status": "success", "entries": a.Entries()})
}
