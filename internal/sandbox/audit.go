package sandbox

import (
	"sync"
	"time"
)

// This file addresses the paper's §5.4 safety challenge: "safety concerns
// arise when the copilot interacts with operational databases". Beyond the
// static vetting and resource limits, every query the sandbox sees —
// instant or range; executed, rejected or failed — is recorded in a
// bounded audit log, which every executor has, so operators can review
// exactly what generated code ran against their data.

// Outcome classifies an audited query.
type Outcome string

// Audit outcomes.
const (
	OutcomeExecuted Outcome = "executed"
	OutcomeRejected Outcome = "rejected"
	OutcomeFailed   Outcome = "failed"
)

// AuditEntry records one query submission.
type AuditEntry struct {
	Time    time.Time `json:"time"`
	Query   string    `json:"query"`
	Outcome Outcome   `json:"outcome"`
	Error   string    `json:"error,omitempty"`
	// Plan is the compact execution plan the engine compiled for the
	// query (empty when the query never reached the planner): the
	// reviewable record of what actually ran, not just what was asked.
	Plan     string        `json:"plan,omitempty"`
	Duration time.Duration `json:"duration_ns"`
}

// AuditLog is a bounded, concurrency-safe ring of audit entries.
type AuditLog struct {
	mu      sync.Mutex
	entries []AuditEntry
	next    int
	full    bool
	limit   int
	clock   func() time.Time
}

// newAuditLog returns a log keeping the most recent limit entries.
func newAuditLog(limit int) *AuditLog {
	return &AuditLog{entries: make([]AuditEntry, limit), limit: limit, clock: time.Now}
}

// record appends one entry, evicting the oldest at capacity.
func (a *AuditLog) record(query, plan string, outcome Outcome, err error, d time.Duration) {
	e := AuditEntry{Time: a.clock(), Query: query, Plan: plan, Outcome: outcome, Duration: d}
	if err != nil {
		e.Error = err.Error()
	}
	a.mu.Lock()
	a.entries[a.next] = e
	a.next++
	if a.next == a.limit {
		a.next = 0
		a.full = true
	}
	a.mu.Unlock()
}

// Entries returns the recorded entries, oldest first.
func (a *AuditLog) Entries() []AuditEntry {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.full {
		out := make([]AuditEntry, a.next)
		copy(out, a.entries[:a.next])
		return out
	}
	out := make([]AuditEntry, 0, a.limit)
	out = append(out, a.entries[a.next:]...)
	out = append(out, a.entries[:a.next]...)
	return out
}

// Len returns the number of recorded entries.
func (a *AuditLog) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.full {
		return a.limit
	}
	return a.next
}
