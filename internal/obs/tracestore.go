package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Attr is one typed span attribute. Values are JSON-marshalable scalars or
// small structures (metric names with scores, token counts, PromQL text).
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// SpanData is one completed span of a captured trace.
type SpanData struct {
	SpanID     string    `json:"span_id"`
	ParentID   string    `json:"parent_id,omitempty"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Error      string    `json:"error,omitempty"`
	Attrs      []Attr    `json:"attrs,omitempty"`
}

// TraceData is one completed request-scoped trace: the root span's
// identity plus every captured span, in completion order.
type TraceData struct {
	TraceID    string     `json:"trace_id"`
	Name       string     `json:"name"`
	Start      time.Time  `json:"start"`
	DurationMS float64    `json:"duration_ms"`
	Error      string     `json:"error,omitempty"`
	Errored    bool       `json:"errored"`
	Spans      []SpanData `json:"spans"`
}

// SpanTree is SpanData with its children attached, ordered by start time —
// the /debug/traces/{id} wire shape.
type SpanTree struct {
	SpanData
	Children []*SpanTree `json:"children,omitempty"`
}

// Tree assembles the span tree rooted at the trace's root span. Orphaned
// spans (parent never finished) attach to the root so nothing captured is
// dropped from the view.
func (td *TraceData) Tree() *SpanTree {
	nodes := make(map[string]*SpanTree, len(td.Spans))
	var root *SpanTree
	for _, sd := range td.Spans {
		nodes[sd.SpanID] = &SpanTree{SpanData: sd}
	}
	for _, sd := range td.Spans {
		n := nodes[sd.SpanID]
		if sd.ParentID == "" {
			root = n
			continue
		}
		if p, ok := nodes[sd.ParentID]; ok {
			p.Children = append(p.Children, n)
		}
	}
	if root == nil {
		// Defensive: a trace is only stored when its root span ended.
		root = &SpanTree{SpanData: SpanData{Name: td.Name, Start: td.Start, DurationMS: td.DurationMS}}
	}
	for _, sd := range td.Spans {
		n := nodes[sd.SpanID]
		if sd.ParentID != "" && nodes[sd.ParentID] == nil && n != root {
			root.Children = append(root.Children, n)
		}
	}
	var order func(*SpanTree)
	order = func(n *SpanTree) {
		sort.SliceStable(n.Children, func(i, j int) bool {
			if !n.Children[i].Start.Equal(n.Children[j].Start) {
				return n.Children[i].Start.Before(n.Children[j].Start)
			}
			return n.Children[i].SpanID < n.Children[j].SpanID
		})
		for _, c := range n.Children {
			order(c)
		}
	}
	order(root)
	return root
}

// TraceSummary is one /debug/traces listing row.
type TraceSummary struct {
	TraceID    string    `json:"trace_id"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Error      string    `json:"error,omitempty"`
	Errored    bool      `json:"errored"`
	Slow       bool      `json:"slow"`
	Spans      int       `json:"spans"`
}

// TraceStore is a bounded in-memory buffer of completed traces: a "recent"
// ring holding the newest capacity traces regardless of kind, plus a
// smaller "notable" ring that preferentially retains slow, errored and
// explicitly-requested (forced) traces so the interesting record of an ask
// survives heavy cheap traffic. Safe for concurrent use.
type TraceStore struct {
	mu      sync.Mutex
	slow    time.Duration
	recent  []*TraceData // ring, oldest at head once full
	rNext   int
	rFull   bool
	notable []*TraceData
	nNext   int
	nFull   bool
}

// NewTraceStore returns a store retaining the newest capacity traces
// (default 256) plus up to capacity/2 (min 8) slow/errored/forced traces.
// Traces at least slowThreshold long count as slow (default 1s).
func NewTraceStore(capacity int, slowThreshold time.Duration) *TraceStore {
	if capacity <= 0 {
		capacity = 256
	}
	if slowThreshold <= 0 {
		slowThreshold = time.Second
	}
	notable := capacity / 2
	if notable < 8 {
		notable = 8
	}
	return &TraceStore{
		slow:    slowThreshold,
		recent:  make([]*TraceData, capacity),
		notable: make([]*TraceData, notable),
	}
}

// isSlow reports whether td crosses the slow threshold.
func (s *TraceStore) isSlow(td *TraceData) bool {
	return td.DurationMS >= float64(s.slow)/float64(time.Millisecond)
}

// Add records one completed trace. forced traces (explain requests) get
// notable retention alongside slow and errored ones. td must not be
// mutated after Add.
func (s *TraceStore) Add(td *TraceData, forced bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recent[s.rNext] = td
	s.rNext++
	if s.rNext == len(s.recent) {
		s.rNext, s.rFull = 0, true
	}
	if forced || td.Errored || td.Error != "" || s.isSlow(td) {
		s.notable[s.nNext] = td
		s.nNext++
		if s.nNext == len(s.notable) {
			s.nNext, s.nFull = 0, true
		}
	}
}

// Get returns the trace with the given ID, searching the notable ring
// first (it outlives the recent one).
func (s *TraceStore) Get(id string) (*TraceData, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ring := range [2][]*TraceData{s.notable, s.recent} {
		for _, td := range ring {
			if td != nil && td.TraceID == id {
				return td, true
			}
		}
	}
	return nil, false
}

// Len returns how many distinct traces are currently retained.
func (s *TraceStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]bool)
	for _, ring := range [2][]*TraceData{s.recent, s.notable} {
		for _, td := range ring {
			if td != nil {
				seen[td.TraceID] = true
			}
		}
	}
	return len(seen)
}

// newestFirst returns a ring's live entries, newest first.
func newestFirst(ring []*TraceData, next int, full bool) []*TraceData {
	var out []*TraceData
	n := len(ring)
	count := next
	if full {
		count = n
	}
	for i := 0; i < count; i++ {
		td := ring[(next-1-i+n)%n]
		if td != nil {
			out = append(out, td)
		}
	}
	return out
}

// List returns trace summaries, newest first. filter selects which traces:
// "recent" (or "") walks the recent ring; "slow" and "errored" walk the
// notable ring keeping only matching traces; "notable" returns the whole
// notable ring. limit <= 0 means no limit.
func (s *TraceStore) List(filter string, limit int) []TraceSummary {
	s.mu.Lock()
	var traces []*TraceData
	switch strings.ToLower(filter) {
	case "", "recent":
		traces = newestFirst(s.recent, s.rNext, s.rFull)
	case "slow":
		for _, td := range newestFirst(s.notable, s.nNext, s.nFull) {
			if s.isSlow(td) {
				traces = append(traces, td)
			}
		}
	case "errored":
		for _, td := range newestFirst(s.notable, s.nNext, s.nFull) {
			if td.Errored || td.Error != "" {
				traces = append(traces, td)
			}
		}
	default: // "notable"
		traces = newestFirst(s.notable, s.nNext, s.nFull)
	}
	slowMS := float64(s.slow) / float64(time.Millisecond)
	s.mu.Unlock()

	if limit > 0 && len(traces) > limit {
		traces = traces[:limit]
	}
	out := make([]TraceSummary, 0, len(traces))
	for _, td := range traces {
		out = append(out, TraceSummary{
			TraceID: td.TraceID, Name: td.Name, Start: td.Start,
			DurationMS: td.DurationMS, Error: td.Error, Errored: td.Errored,
			Slow: td.DurationMS >= slowMS, Spans: len(td.Spans),
		})
	}
	return out
}

// FormatTrace renders the span tree as an indented terminal listing (the
// dio-cli -explain output).
func FormatTrace(td *TraceData) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s  %s  %.2fms", td.TraceID, td.Name, td.DurationMS)
	if td.Error != "" {
		fmt.Fprintf(&b, "  ERROR: %s", td.Error)
	}
	b.WriteByte('\n')
	root := td.Tree()
	// Root attrs (question, outcome, http status) print above the tree.
	for _, a := range root.Attrs {
		formatAttr(&b, "  ", a)
	}
	var walk func(n *SpanTree, depth int)
	walk = func(n *SpanTree, depth int) {
		indent := strings.Repeat("  ", depth)
		// Self-time excludes children, so a span's own cost reads directly
		// off the tree (mirroring the "self" column of EXPLAIN ANALYZE).
		fmt.Fprintf(&b, "%s- %s  %.2fms (self %.2fms)", indent, n.Name, n.DurationMS, spanSelfMS(n))
		if n.Error != "" {
			fmt.Fprintf(&b, "  ERROR: %s", n.Error)
		}
		b.WriteByte('\n')
		for _, a := range n.Attrs {
			formatAttr(&b, indent+"    ", a)
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, c := range root.Children {
		walk(c, 0)
	}
	return b.String()
}

// spanSelfMS is a span's exclusive duration: total minus its children,
// clamped at zero (concurrent children can overlap their parent).
func spanSelfMS(n *SpanTree) float64 {
	self := n.DurationMS
	for _, c := range n.Children {
		self -= c.DurationMS
	}
	if self < 0 {
		return 0
	}
	return self
}

// formatAttr prints one span attribute at the given indent. Multi-line
// string values (rendered plans, error chains) continue on their own lines,
// indented one level past the key, so they cannot break the tree layout.
func formatAttr(b *strings.Builder, indent string, a Attr) {
	s, ok := a.Value.(string)
	if !ok || !strings.Contains(s, "\n") {
		fmt.Fprintf(b, "%s%s: %v\n", indent, a.Key, a.Value)
		return
	}
	fmt.Fprintf(b, "%s%s:\n", indent, a.Key)
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		fmt.Fprintf(b, "%s  %s\n", indent, line)
	}
}
