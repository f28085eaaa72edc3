// Package feedback implements the expert feedback mechanism of §3.4: the
// raised-hand button opens a repository-style issue carrying the question,
// context and response; a pre-identified expert resolves it by
// contributing documentation (or a bespoke function) to the domain-specific
// database, attributed to the expert; the contribution is re-indexed so
// the system improves with usage.
package feedback

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// State is the lifecycle of an issue.
type State int

// Issue states.
const (
	Open State = iota
	Resolved
	Closed
)

// String names the state.
func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case Resolved:
		return "resolved"
	case Closed:
		return "closed"
	}
	return "unknown"
}

// Contribution is the expert's resolution payload: documentation for a
// metric (and optionally a bespoke function recipe).
type Contribution struct {
	// MetricName is the metric the documentation describes.
	MetricName string `json:"metric_name"`
	// Description is the expert-written documentation text.
	Description string `json:"description"`
	// FunctionName/FunctionTemplate optionally contribute a bespoke
	// function ("" for none).
	FunctionName     string `json:"function_name,omitempty"`
	FunctionTemplate string `json:"function_template,omitempty"`
	FunctionArity    int    `json:"function_arity,omitempty"`
}

// Issue is one expert-assistance request, mirroring a repository issue.
type Issue struct {
	ID       int       `json:"id"`
	Question string    `json:"question"`
	Context  []string  `json:"context"`
	Response string    `json:"response"`
	Query    string    `json:"query"`
	State    State     `json:"state"`
	OpenedAt time.Time `json:"opened_at"`
	// TraceID links the issue to the captured request trace of the answer
	// it was filed against (resolvable at /debug/traces/{id} while
	// retained; empty when the answer was untraced).
	TraceID string `json:"trace_id,omitempty"`
	// Expert and Resolution record the attributed contribution (§3.4:
	// attribution "ensures that experts receive recognition ... and
	// creates accountability").
	Expert     string        `json:"expert,omitempty"`
	ResolvedAt time.Time     `json:"resolved_at,omitempty"`
	Resolution *Contribution `json:"resolution,omitempty"`
}

// Applier receives resolved contributions (the domain-specific database
// and the retriever index implement this wiring in package core callers).
type Applier func(Contribution, string) error

// Tracker is the issue store. It is safe for concurrent use.
type Tracker struct {
	mu           sync.Mutex
	nextID       int
	issues       map[int]*Issue
	experts      map[string]bool
	clock        func() time.Time
	appliers     []Applier
	proposals    map[int]*Proposal
	nextProposal int
}

// NewTracker returns a tracker with the given pre-identified experts. A
// nil clock uses time.Now.
func NewTracker(experts []string, clock func() time.Time) *Tracker {
	if clock == nil {
		clock = time.Now
	}
	t := &Tracker{nextID: 1, issues: make(map[int]*Issue), experts: make(map[string]bool), clock: clock}
	for _, e := range experts {
		t.experts[e] = true
	}
	return t
}

// OnResolve registers a callback invoked with every applied contribution.
func (t *Tracker) OnResolve(fn Applier) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.appliers = append(t.appliers, fn)
}

// Experts returns the sorted expert roster.
func (t *Tracker) Experts() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.experts))
	for e := range t.experts {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// Open files a new issue from a copilot interaction.
func (t *Tracker) Open(question, response, query string, context []string) *Issue {
	t.mu.Lock()
	defer t.mu.Unlock()
	is := &Issue{
		ID: t.nextID, Question: question, Response: response, Query: query,
		Context: append([]string(nil), context...), State: Open, OpenedAt: t.clock(),
	}
	t.nextID++
	t.issues[is.ID] = is
	return is
}

// SetTraceID links an issue to the captured request trace of the answer
// it was filed against.
func (t *Tracker) SetTraceID(id int, traceID string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if is, ok := t.issues[id]; ok {
		is.TraceID = traceID
	}
}

// Get returns the issue with the given id.
func (t *Tracker) Get(id int) (*Issue, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	is, ok := t.issues[id]
	return is, ok
}

// List returns issues in the given state (or all states when state < 0),
// ordered by id.
func (t *Tracker) List(state State) []*Issue {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Issue, 0, len(t.issues))
	for _, is := range t.issues {
		if state < 0 || is.State == state {
			out = append(out, is)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Errors returned by Resolve.
var (
	ErrUnknownIssue  = errors.New("feedback: unknown issue")
	ErrNotExpert     = errors.New("feedback: resolver is not a pre-identified expert")
	ErrAlreadyClosed = errors.New("feedback: issue is not open")
)

// Resolve applies an expert contribution to an open issue. Only
// pre-identified experts may resolve (§3.4); the contribution is handed to
// every registered applier and attributed to the expert.
func (t *Tracker) Resolve(id int, expert string, c Contribution) error {
	t.mu.Lock()
	is, ok := t.issues[id]
	if !ok {
		t.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownIssue, id)
	}
	if !t.experts[expert] {
		t.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotExpert, expert)
	}
	if is.State != Open {
		t.mu.Unlock()
		return fmt.Errorf("%w: %d is %s", ErrAlreadyClosed, id, is.State)
	}
	if c.MetricName == "" || c.Description == "" {
		t.mu.Unlock()
		return errors.New("feedback: contribution requires a metric name and description")
	}
	is.State = Resolved
	is.Expert = expert
	is.ResolvedAt = t.clock()
	cc := c
	is.Resolution = &cc
	appliers := append([]Applier(nil), t.appliers...)
	t.mu.Unlock()

	for _, fn := range appliers {
		if err := fn(c, expert); err != nil {
			return fmt.Errorf("feedback: applying contribution: %w", err)
		}
	}
	return nil
}

// Close closes an open issue without a contribution.
func (t *Tracker) Close(id int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	is, ok := t.issues[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownIssue, id)
	}
	if is.State != Open {
		return fmt.Errorf("%w: %d is %s", ErrAlreadyClosed, id, is.State)
	}
	is.State = Closed
	return nil
}

// trackerState is the JSON persistence form.
type trackerState struct {
	NextID       int         `json:"next_id"`
	Issues       []*Issue    `json:"issues"`
	Experts      []string    `json:"experts"`
	Proposals    []*Proposal `json:"proposals,omitempty"`
	NextProposal int         `json:"next_proposal,omitempty"`
}

// Save serialises the tracker to JSON.
func (t *Tracker) Save(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := trackerState{NextID: t.nextID, NextProposal: t.nextProposal}
	for _, is := range t.issues {
		st.Issues = append(st.Issues, is)
	}
	for _, p := range t.proposals {
		st.Proposals = append(st.Proposals, p)
	}
	sort.Slice(st.Proposals, func(i, j int) bool { return st.Proposals[i].ID < st.Proposals[j].ID })
	sort.Slice(st.Issues, func(i, j int) bool { return st.Issues[i].ID < st.Issues[j].ID })
	for e := range t.experts {
		st.Experts = append(st.Experts, e)
	}
	sort.Strings(st.Experts)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

// Load restores a tracker saved with Save.
func Load(r io.Reader, clock func() time.Time) (*Tracker, error) {
	var st trackerState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("feedback: corrupt tracker state: %w", err)
	}
	t := NewTracker(st.Experts, clock)
	t.nextID = st.NextID
	t.nextProposal = st.NextProposal
	for _, is := range st.Issues {
		t.issues[is.ID] = is
	}
	if len(st.Proposals) > 0 {
		t.proposals = make(map[int]*Proposal, len(st.Proposals))
		for _, p := range st.Proposals {
			t.proposals[p.ID] = p
		}
	}
	if t.nextID < 1 {
		t.nextID = 1
	}
	return t, nil
}
