package feedback

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// This file implements the paper's §3.4 future-work extension: "expand the
// pool of experts or adopt a voting mechanism, similar to Stack Overflow".
// Any user may *propose* a contribution for an open issue; pre-identified
// experts vote on proposals; a proposal that reaches the acceptance
// threshold of net up-votes is applied exactly like a direct expert
// resolution, attributed to its author and endorsing voters.

// ProposalState is the lifecycle of a community proposal.
type ProposalState int

// Proposal states.
const (
	Pending ProposalState = iota
	Accepted
	Rejected
)

// String names the state.
func (s ProposalState) String() string {
	switch s {
	case Pending:
		return "pending"
	case Accepted:
		return "accepted"
	case Rejected:
		return "rejected"
	}
	return "unknown"
}

// Proposal is one community-contributed resolution awaiting votes.
type Proposal struct {
	ID           int           `json:"id"`
	IssueID      int           `json:"issue_id"`
	Author       string        `json:"author"`
	Contribution Contribution  `json:"contribution"`
	State        ProposalState `json:"state"`
	CreatedAt    time.Time     `json:"created_at"`
	// Votes maps expert → +1 (up) or -1 (down). One vote per expert,
	// revisable while pending.
	Votes map[string]int `json:"votes"`
}

// Score returns the net vote balance.
func (p *Proposal) Score() int {
	s := 0
	for _, v := range p.Votes {
		s += v
	}
	return s
}

// Voting errors.
var (
	ErrUnknownProposal = errors.New("feedback: unknown proposal")
	ErrProposalClosed  = errors.New("feedback: proposal is not pending")
	ErrSelfVote        = errors.New("feedback: authors cannot vote on their own proposal")
)

// DefaultAcceptThreshold is the net up-votes required to accept a
// proposal; DefaultRejectThreshold the net down-votes to reject it.
const (
	DefaultAcceptThreshold = 2
	DefaultRejectThreshold = -2
)

// Propose files a community contribution for an open issue. Unlike
// Resolve, any author may propose; acceptance is gated by expert votes.
func (t *Tracker) Propose(issueID int, author string, c Contribution) (*Proposal, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	is, ok := t.issues[issueID]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownIssue, issueID)
	}
	if is.State != Open {
		return nil, fmt.Errorf("%w: %d is %s", ErrAlreadyClosed, issueID, is.State)
	}
	if c.MetricName == "" || c.Description == "" {
		return nil, errors.New("feedback: proposal requires a metric name and description")
	}
	if t.proposals == nil {
		t.proposals = make(map[int]*Proposal)
	}
	p := &Proposal{
		ID: t.nextProposal + 1, IssueID: issueID, Author: author,
		Contribution: c, State: Pending, CreatedAt: t.clock(),
		Votes: make(map[string]int),
	}
	t.nextProposal++
	t.proposals[p.ID] = p
	return p, nil
}

// Proposals returns proposals for an issue (all issues when issueID < 0),
// ordered by id.
func (t *Tracker) Proposals(issueID int) []*Proposal {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Proposal, 0, len(t.proposals))
	for _, p := range t.proposals {
		if issueID < 0 || p.IssueID == issueID {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Vote records an expert's up/down vote. When the proposal's net score
// reaches the accept threshold it is applied (resolving its issue,
// attributed to the author with voter endorsement); at the reject
// threshold it is discarded. Only pre-identified experts vote; authors
// cannot vote for themselves.
func (t *Tracker) Vote(proposalID int, expert string, up bool) error {
	t.mu.Lock()
	p, ok := t.proposals[proposalID]
	if !ok {
		t.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownProposal, proposalID)
	}
	if !t.experts[expert] {
		t.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotExpert, expert)
	}
	if p.State != Pending {
		t.mu.Unlock()
		return fmt.Errorf("%w: %d is %s", ErrProposalClosed, proposalID, p.State)
	}
	if expert == p.Author {
		t.mu.Unlock()
		return ErrSelfVote
	}
	v := 1
	if !up {
		v = -1
	}
	p.Votes[expert] = v

	switch score := p.Score(); {
	case score >= DefaultAcceptThreshold:
		p.State = Accepted
		// Apply as a resolution attributed to the author, endorsed by the
		// up-voting experts. An issue that is no longer open keeps its
		// resolution, and the proposal applies nothing.
		var appliers []Applier
		if is, ok := t.issues[p.IssueID]; ok {
			appliers, _ = t.resolveLocked(is, p.Author+" (community, accepted by "+votersList(p)+")", p.Contribution)
		}
		t.mu.Unlock()
		return apply(appliers, p.Contribution, p.Author)
	case score <= DefaultRejectThreshold:
		p.State = Rejected
	}
	t.mu.Unlock()
	return nil
}

// votersList renders the sorted up-voting experts.
func votersList(p *Proposal) string {
	var ups []string
	for e, v := range p.Votes {
		if v > 0 {
			ups = append(ups, e)
		}
	}
	sort.Strings(ups)
	out := ""
	for i, e := range ups {
		if i > 0 {
			out += ", "
		}
		out += e
	}
	return out
}
