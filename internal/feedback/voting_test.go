package feedback_test

import (
	"bytes"
	"errors"
	"testing"

	"dio/internal/feedback"
)

func openIssueTracker(t *testing.T) (*feedback.Tracker, *feedback.Issue) {
	t.Helper()
	tr := feedback.NewTracker([]string{"alice", "bob", "carol"}, fixedClock)
	is := tr.Open("What is the registration storm indicator?", "", "", nil)
	return tr, is
}

func contribution() feedback.Contribution {
	return feedback.Contribution{
		MetricName:  "amfcc_initial_registration_attempt",
		Description: "The registration storm indicator.",
	}
}

func TestProposeValidation(t *testing.T) {
	tr, is := openIssueTracker(t)
	if _, err := tr.Propose(99, "user", contribution()); !errors.Is(err, feedback.ErrUnknownIssue) {
		t.Fatalf("unknown issue: %v", err)
	}
	if _, err := tr.Propose(is.ID, "user", feedback.Contribution{}); err == nil {
		t.Fatal("empty contribution accepted")
	}
	p, err := tr.Propose(is.ID, "user", contribution())
	if err != nil {
		t.Fatal(err)
	}
	if p.State != feedback.Pending || p.Score() != 0 {
		t.Fatalf("proposal = %+v", p)
	}
	// Proposals against issues no longer open are refused.
	if err := tr.Resolve(is.ID, "alice", contribution()); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Propose(is.ID, "user", contribution()); !errors.Is(err, feedback.ErrAlreadyClosed) {
		t.Fatalf("closed issue: %v", err)
	}
}

func TestVoteAcceptFlow(t *testing.T) {
	tr, is := openIssueTracker(t)
	var applied []string
	tr.OnResolve(func(c feedback.Contribution, author string) error {
		applied = append(applied, author)
		return nil
	})
	p, err := tr.Propose(is.ID, "community.user", contribution())
	if err != nil {
		t.Fatal(err)
	}

	// Non-expert cannot vote.
	if err := tr.Vote(p.ID, "mallory", true); !errors.Is(err, feedback.ErrNotExpert) {
		t.Fatalf("non-expert vote: %v", err)
	}
	// One up-vote: still pending.
	if err := tr.Vote(p.ID, "alice", true); err != nil {
		t.Fatal(err)
	}
	if got := tr.Proposals(is.ID)[0]; got.State != feedback.Pending || got.Score() != 1 {
		t.Fatalf("after one vote: %+v", got)
	}
	// Second up-vote reaches the threshold: accepted and applied.
	if err := tr.Vote(p.ID, "bob", true); err != nil {
		t.Fatal(err)
	}
	got := tr.Proposals(is.ID)[0]
	if got.State != feedback.Accepted {
		t.Fatalf("state = %s", got.State)
	}
	if len(applied) != 1 || applied[0] != "community.user" {
		t.Fatalf("appliers = %v", applied)
	}
	// The issue is resolved with community attribution.
	issue, _ := tr.Get(is.ID)
	if issue.State != feedback.Resolved {
		t.Fatalf("issue state = %s", issue.State)
	}
	if issue.Expert != "community.user (community, accepted by alice, bob)" {
		t.Fatalf("attribution = %q", issue.Expert)
	}
	// Further votes on the decided proposal are refused.
	if err := tr.Vote(p.ID, "carol", true); !errors.Is(err, feedback.ErrProposalClosed) {
		t.Fatalf("vote after accept: %v", err)
	}
}

// TestVoteAcceptAfterExpertResolution: a proposal filed while its issue
// was open and accepted after an expert resolved the issue applies
// nothing, so the catalog and the retriever keep the expert's text, the
// text the issue shows.
func TestVoteAcceptAfterExpertResolution(t *testing.T) {
	tr, is := openIssueTracker(t)
	var applied []string
	tr.OnResolve(func(c feedback.Contribution, author string) error {
		applied = append(applied, c.Description+" by "+author)
		return nil
	})
	community := contribution()
	community.Description = "community text"
	p, err := tr.Propose(is.ID, "j.doe", community)
	if err != nil {
		t.Fatal(err)
	}
	expert := contribution()
	expert.Description = "expert text"
	if err := tr.Resolve(is.ID, "alice", expert); err != nil {
		t.Fatal(err)
	}
	for _, voter := range []string{"bob", "carol"} {
		if err := tr.Vote(p.ID, voter, true); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.Proposals(is.ID)[0].State; got != feedback.Accepted {
		t.Errorf("proposal state = %s, want accepted", got)
	}
	if len(applied) != 1 || applied[0] != "expert text by alice" {
		t.Errorf("appliers received %q, want only the expert's resolution", applied)
	}
	issue, _ := tr.Get(is.ID)
	if issue.Expert != "alice" || issue.Resolution.Description != "expert text" {
		t.Errorf("issue resolved by %q with %q, want alice's expert text", issue.Expert, issue.Resolution.Description)
	}
}

func TestVoteRejectFlow(t *testing.T) {
	tr, is := openIssueTracker(t)
	p, _ := tr.Propose(is.ID, "community.user", contribution())
	if err := tr.Vote(p.ID, "alice", false); err != nil {
		t.Fatal(err)
	}
	if err := tr.Vote(p.ID, "bob", false); err != nil {
		t.Fatal(err)
	}
	if got := tr.Proposals(-1)[0]; got.State != feedback.Rejected {
		t.Fatalf("state = %s", got.State)
	}
	// The issue stays open for other proposals.
	issue, _ := tr.Get(is.ID)
	if issue.State != feedback.Open {
		t.Fatalf("issue state = %s", issue.State)
	}
}

func TestVoteRevision(t *testing.T) {
	tr, is := openIssueTracker(t)
	p, _ := tr.Propose(is.ID, "community.user", contribution())
	// alice flips her vote; only the latest counts.
	if err := tr.Vote(p.ID, "alice", false); err != nil {
		t.Fatal(err)
	}
	if err := tr.Vote(p.ID, "alice", true); err != nil {
		t.Fatal(err)
	}
	if got := tr.Proposals(-1)[0].Score(); got != 1 {
		t.Fatalf("score after revision = %d", got)
	}
}

func TestSelfVoteForbidden(t *testing.T) {
	tr, is := openIssueTracker(t)
	// alice (an expert) proposes and tries to vote for herself.
	p, err := tr.Propose(is.ID, "alice", contribution())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Vote(p.ID, "alice", true); !errors.Is(err, feedback.ErrSelfVote) {
		t.Fatalf("self-vote: %v", err)
	}
}

func TestVoteUnknownProposal(t *testing.T) {
	tr, _ := openIssueTracker(t)
	if err := tr.Vote(7, "alice", true); !errors.Is(err, feedback.ErrUnknownProposal) {
		t.Fatalf("unknown proposal: %v", err)
	}
}

func TestProposalsPersist(t *testing.T) {
	tr, is := openIssueTracker(t)
	p, _ := tr.Propose(is.ID, "community.user", contribution())
	if err := tr.Vote(p.ID, "alice", true); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	tr2, err := feedback.Load(&buf, fixedClock)
	if err != nil {
		t.Fatal(err)
	}
	got := tr2.Proposals(-1)
	if len(got) != 1 || got[0].Score() != 1 || got[0].Author != "community.user" {
		t.Fatalf("loaded proposals = %+v", got)
	}
	// Voting continues after load: bob's vote accepts it.
	if err := tr2.Vote(p.ID, "bob", true); err != nil {
		t.Fatal(err)
	}
	if tr2.Proposals(-1)[0].State != feedback.Accepted {
		t.Fatal("proposal not accepted after reload")
	}
}
