package core_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dio/internal/catalog"
	"dio/internal/core"
	"dio/internal/feedback"
	"dio/internal/fivegsim"
	"dio/internal/llm"
	"dio/internal/servecache"
	"dio/internal/tsdb"
)

// servingEnv builds a private mutable environment (the serving tests
// apply feedback and append samples, so the shared testenv fixture is
// off-limits) with an answer-cache front over the copilot.
type servingEnv struct {
	cat     *catalog.Database
	db      *tsdb.DB
	cp      *core.Copilot
	tracker *feedback.Tracker
	front   *servecache.Front[*core.Answer]
}

func newServingEnv(t *testing.T, ttl time.Duration) *servingEnv {
	t.Helper()
	cat := catalog.Generate()
	db := tsdb.New()
	cfg := fivegsim.DefaultConfig()
	cfg.Duration = 20 * time.Minute
	if _, err := fivegsim.Populate(db, cat, cfg); err != nil {
		t.Fatal(err)
	}
	cp, err := core.New(core.Config{Catalog: cat, TSDB: db, Model: llm.MustNew("gpt-4")})
	if err != nil {
		t.Fatal(err)
	}
	tracker := feedback.NewTracker([]string{"r.nakamura"}, nil)
	feedback.WireCopilot(tracker, cp)
	front := servecache.NewFront(servecache.FrontConfig[*core.Answer]{
		Size: 256, TTL: ttl,
		Version: cat.Version, Head: db.HeadTime,
		Compute: cp.Ask,
	})
	return &servingEnv{cat: cat, db: db, cp: cp, tracker: tracker, front: front}
}

// resolveJargon runs one full feedback loop: open an issue for the
// question and resolve it with an expert contribution tying the jargon to
// a metric.
func (e *servingEnv) resolveJargon(t *testing.T, question, metric, description string) {
	t.Helper()
	issue := e.tracker.Open(question, "I could not find a matching metric.", "", nil)
	err := e.tracker.Resolve(issue.ID, "r.nakamura", feedback.Contribution{
		MetricName: metric, Description: description,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAnswerCacheInvalidationOnFeedback: a cached answer must change once
// feedback.Apply lands an expert document — the catalog version bump makes
// the old cache entry unaddressable.
func TestAnswerCacheInvalidationOnFeedback(t *testing.T) {
	e := newServingEnv(t, time.Hour)
	ctx := context.Background()
	const q = "What is the current registration storm indicator?"

	before, st, err := e.front.Do(ctx, q, false)
	if err != nil {
		t.Fatal(err)
	}
	if st != servecache.StatusMiss {
		t.Fatalf("first ask: status = %s, want miss", st)
	}
	cached, st, err := e.front.Do(ctx, q, false)
	if err != nil {
		t.Fatal(err)
	}
	if st != servecache.StatusHit {
		t.Fatalf("repeat ask: status = %s, want hit", st)
	}
	if core.RenderAnswer(before) != core.RenderAnswer(cached) {
		t.Fatal("cached answer differs from its own original computation")
	}

	v0 := e.cat.Version()
	e.resolveJargon(t, q, "amfcc_initial_registration_attempt",
		"The registration storm indicator is this counter's fleet-wide total.")
	if e.cat.Version() == v0 {
		t.Fatal("feedback resolution did not bump the catalog version")
	}

	after, st, err := e.front.Do(ctx, q, false)
	if err != nil {
		t.Fatal(err)
	}
	if st != servecache.StatusMiss {
		t.Fatalf("post-feedback ask: status = %s, want miss (version-invalidated)", st)
	}
	if !strings.Contains(after.Query, "amfcc_initial_registration_attempt") {
		t.Fatalf("post-feedback answer ignores the expert doc: query = %q", after.Query)
	}
	if core.RenderAnswer(after) == core.RenderAnswer(before) {
		t.Fatal("answer unchanged after the expert contribution")
	}
}

// TestAnswerCacheInvalidationOnHeadAdvance: once the TSDB head moves past
// the freshness bucket, the cached answer stops being served and the
// recomputation sees the new data.
func TestAnswerCacheInvalidationOnHeadAdvance(t *testing.T) {
	const ttl = time.Minute
	e := newServingEnv(t, ttl)
	ctx := context.Background()
	const q = "How many PDU sessions are currently active?"

	before, st, err := e.front.Do(ctx, q, false)
	if err != nil {
		t.Fatal(err)
	}
	if st != servecache.StatusMiss {
		t.Fatalf("first ask: status = %s, want miss", st)
	}
	if _, st, _ = e.front.Do(ctx, q, false); st != servecache.StatusHit {
		t.Fatalf("repeat ask within the bucket: status = %s, want hit", st)
	}

	// Advance the head two freshness buckets with a wildly different
	// gauge value on every smfsm_pdu_sessions_active series.
	head := e.db.HeadTime()
	newT := head + 2*ttl.Milliseconds()
	appended := 0
	for _, sr := range e.db.AllSeries() {
		if sr.Labels.Name() != "smfsm_pdu_sessions_active" {
			continue
		}
		if err := e.db.Append(sr.Labels, newT, 999999); err != nil {
			t.Fatal(err)
		}
		appended++
	}
	if appended == 0 {
		t.Fatal("no smfsm_pdu_sessions_active series in the trace")
	}
	if e.db.HeadTime() <= head {
		t.Fatal("append did not advance the TSDB head")
	}

	after, st, err := e.front.Do(ctx, q, false)
	if err != nil {
		t.Fatal(err)
	}
	if st != servecache.StatusMiss {
		t.Fatalf("post-ingest ask: status = %s, want miss (freshness bucket advanced)", st)
	}
	if after.ValueText == before.ValueText {
		t.Fatalf("answer still reports the pre-ingest value %q after the head advanced", before.ValueText)
	}
}

// TestConcurrentFeedbackAndAsk drives the acceptance scenario end to end
// under -race: concurrent feedback.Apply and cached Asks stay clean, and
// the first ask after an Apply reflects the new expert document.
func TestConcurrentFeedbackAndAsk(t *testing.T) {
	e := newServingEnv(t, time.Hour)
	ctx := context.Background()
	questions := []string{
		"How many PDU sessions are currently active?",
		"What is the paging success rate?",
		"How many handovers succeeded in the last hour?",
		"What is the current registration storm indicator?",
	}

	const askers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < askers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := questions[(w+i)%len(questions)]
				if _, _, err := e.front.Do(ctx, q, false); err != nil {
					t.Errorf("asker %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	for i := 0; i < 12; i++ {
		e.resolveJargon(t,
			fmt.Sprintf("What about operator alias %d?", i),
			"amfmm_paging_attempt",
			fmt.Sprintf("Operator alias %d maps to paging attempts.", i))
	}
	e.resolveJargon(t, "What is the current golden signal alpha?",
		"smfsm_pdu_session_establishment_attempt",
		"The golden signal alpha is this counter's fleet-wide total.")
	close(stop)
	wg.Wait()

	ans, st, err := e.front.Do(ctx, "What is the current golden signal alpha?", false)
	if err != nil {
		t.Fatal(err)
	}
	if st != servecache.StatusHit && st != servecache.StatusCoalesced && st != servecache.StatusMiss {
		t.Fatalf("unexpected status %s", st)
	}
	if !strings.Contains(ans.Query, "smfsm_pdu_session_establishment_attempt") {
		t.Fatalf("post-Apply ask does not reflect the expert doc: query = %q", ans.Query)
	}
}
