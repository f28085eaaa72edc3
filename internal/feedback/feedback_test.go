package feedback_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dio/internal/catalog"
	"dio/internal/core"
	"dio/internal/feedback"
	"dio/internal/fivegsim"
	"dio/internal/llm"
	"dio/internal/tsdb"
)

func fixedClock() time.Time { return time.Date(2026, 7, 6, 10, 0, 0, 0, time.UTC) }

func newTracker() *feedback.Tracker {
	return feedback.NewTracker([]string{"alice", "bob"}, fixedClock)
}

func TestOpenAndList(t *testing.T) {
	tr := newTracker()
	is := tr.Open("q?", "resp", "sum(x)", []string{"m1", "m2"})
	if is.ID != 1 || is.State != feedback.Open || len(is.Context) != 2 {
		t.Fatalf("issue = %+v", is)
	}
	is2 := tr.Open("q2?", "", "", nil)
	if is2.ID != 2 {
		t.Fatalf("second id = %d", is2.ID)
	}
	if got := tr.List(feedback.Open); len(got) != 2 || got[0].ID != 1 {
		t.Fatalf("open list = %+v", got)
	}
	if got := tr.List(-1); len(got) != 2 {
		t.Fatalf("all list = %+v", got)
	}
	if _, ok := tr.Get(1); !ok {
		t.Error("Get(1) missed")
	}
	if _, ok := tr.Get(99); ok {
		t.Error("Get(99) hit")
	}
}

func TestResolveLifecycle(t *testing.T) {
	tr := newTracker()
	is := tr.Open("q?", "resp", "", nil)

	var applied []string
	tr.OnResolve(func(c feedback.Contribution, expert string) error {
		applied = append(applied, expert+":"+c.MetricName)
		return nil
	})

	// Unknown issue.
	err := tr.Resolve(99, "alice", feedback.Contribution{MetricName: "m", Description: "d"})
	if !errors.Is(err, feedback.ErrUnknownIssue) {
		t.Fatalf("want ErrUnknownIssue, got %v", err)
	}
	// Non-expert.
	err = tr.Resolve(is.ID, "mallory", feedback.Contribution{MetricName: "m", Description: "d"})
	if !errors.Is(err, feedback.ErrNotExpert) {
		t.Fatalf("want ErrNotExpert, got %v", err)
	}
	// Missing payload.
	if err := tr.Resolve(is.ID, "alice", feedback.Contribution{}); err == nil {
		t.Fatal("empty contribution accepted")
	}
	// Success.
	if err := tr.Resolve(is.ID, "alice", feedback.Contribution{MetricName: "m", Description: "d"}); err != nil {
		t.Fatal(err)
	}
	got, _ := tr.Get(is.ID)
	if got.State != feedback.Resolved || got.Expert != "alice" || got.Resolution == nil {
		t.Fatalf("resolved issue = %+v", got)
	}
	if len(applied) != 1 || applied[0] != "alice:m" {
		t.Fatalf("appliers = %v", applied)
	}
	// Double resolution.
	err = tr.Resolve(is.ID, "bob", feedback.Contribution{MetricName: "m", Description: "d"})
	if !errors.Is(err, feedback.ErrAlreadyClosed) {
		t.Fatalf("want ErrAlreadyClosed, got %v", err)
	}
}

func TestClose(t *testing.T) {
	tr := newTracker()
	is := tr.Open("q?", "", "", nil)
	if err := tr.Close(is.ID); err != nil {
		t.Fatal(err)
	}
	got, _ := tr.Get(is.ID)
	if got.State != feedback.Closed {
		t.Fatalf("state = %s", got.State)
	}
	if err := tr.Close(is.ID); !errors.Is(err, feedback.ErrAlreadyClosed) {
		t.Fatalf("double close: %v", err)
	}
	if err := tr.Close(42); !errors.Is(err, feedback.ErrUnknownIssue) {
		t.Fatalf("unknown close: %v", err)
	}
}

func TestExpertsRoster(t *testing.T) {
	tr := newTracker()
	if got := tr.Experts(); len(got) != 2 || got[0] != "alice" {
		t.Fatalf("experts = %v", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tr := newTracker()
	tr.Open("q1?", "r1", "sum(a)", []string{"a"})
	is := tr.Open("q2?", "r2", "", nil)
	if err := tr.Resolve(is.ID, "bob", feedback.Contribution{MetricName: "m", Description: "d"}); err != nil {
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
	all := tr2.List(-1)
	if len(all) != 2 || all[1].State != feedback.Resolved || all[1].Expert != "bob" {
		t.Fatalf("loaded issues = %+v", all)
	}
	// IDs continue after load.
	if next := tr2.Open("q3?", "", "", nil); next.ID != 3 {
		t.Fatalf("next id = %d", next.ID)
	}
	// Roster survives.
	if err := tr2.Resolve(1, "alice", feedback.Contribution{MetricName: "x", Description: "d"}); err != nil {
		t.Fatalf("roster lost: %v", err)
	}
}

func TestLoadCorrupt(t *testing.T) {
	if _, err := feedback.Load(strings.NewReader("{"), nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestStateString(t *testing.T) {
	if feedback.Open.String() != "open" || feedback.Resolved.String() != "resolved" || feedback.Closed.String() != "closed" {
		t.Error("state strings wrong")
	}
}

// TestWireCopilotLoop exercises the full §3.4 loop: unanswerable question →
// issue → expert contribution → answerable question. It builds its own
// catalog because the contribution mutates it.
func TestWireCopilotLoop(t *testing.T) {
	cat := catalog.Generate()
	db := tsdb.New()
	cfg := fivegsim.DefaultConfig()
	cfg.Duration = 10 * time.Minute
	if _, err := fivegsim.Populate(db, cat, cfg); err != nil {
		t.Fatal(err)
	}
	cp, err := core.New(core.Config{Catalog: cat, TSDB: db, Model: llm.MustNew("gpt-4")})
	if err != nil {
		t.Fatal(err)
	}
	tr := feedback.NewTracker([]string{"alice"}, fixedClock)
	feedback.WireCopilot(tr, cp)
	ctx := context.Background()

	const q = "What is the current registration storm indicator?"
	before, err := cp.Ask(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if before.ExecErr == nil && len(before.Metrics) > 0 && before.Metrics[0].Known {
		t.Fatalf("jargon question unexpectedly grounded before feedback: %+v", before.Metrics)
	}

	issue := feedback.OpenFromAnswer(tr, before)
	if issue.Question != q || len(issue.Context) == 0 {
		t.Fatalf("issue payload incomplete: %+v", issue)
	}
	err = tr.Resolve(issue.ID, "alice", feedback.Contribution{
		MetricName:  "amfcc_initial_registration_attempt",
		Description: "The registration storm indicator is the fleet-wide total of initial registration attempts.",
	})
	if err != nil {
		t.Fatal(err)
	}

	after, err := cp.Ask(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if after.ExecErr != nil || len(after.Metrics) == 0 || !after.Metrics[0].Known {
		t.Fatalf("question still ungrounded after contribution: %+v (err %v)", after.Metrics, after.ExecErr)
	}
	if after.Metrics[0].Name != "amfcc_initial_registration_attempt" {
		t.Errorf("grounded to %s", after.Metrics[0].Name)
	}
}

// TestWireCopilotFunctionContribution covers the bespoke-function path.
func TestWireCopilotFunctionContribution(t *testing.T) {
	cat := catalog.Generate()
	db := tsdb.New()
	cfg := fivegsim.DefaultConfig()
	cfg.Duration = 5 * time.Minute
	if _, err := fivegsim.Populate(db, cat, cfg); err != nil {
		t.Fatal(err)
	}
	cp, err := core.New(core.Config{Catalog: cat, TSDB: db, Model: llm.MustNew("gpt-4")})
	if err != nil {
		t.Fatal(err)
	}
	tr := feedback.NewTracker([]string{"alice"}, fixedClock)
	feedback.WireCopilot(tr, cp)
	is := tr.Open("how to compute the golden ratio of attempts?", "", "", nil)
	nFuncs := len(cat.Functions)
	err = tr.Resolve(is.ID, "alice", feedback.Contribution{
		MetricName:       "amfcc_initial_registration_attempt",
		Description:      "golden ratio of attempts",
		FunctionName:     "golden_ratio",
		FunctionTemplate: "sum(%s) * 1.618",
		FunctionArity:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Functions) != nFuncs+1 {
		t.Fatal("function not added to the catalog")
	}
	f, ok := cat.LookupFunction("golden_ratio")
	if !ok || f.Author != "alice" {
		t.Fatalf("function lookup = %+v ok=%v", f, ok)
	}
}
