package core_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"dio/internal/catalog"
	"dio/internal/core"
)

// TestRetrieverConcurrentFeedback hammers retrieval from 8 goroutines
// while expert contributions stream into the index — the live-traffic
// shape of the feedback loop. Run under -race (scripts/verify.sh does)
// this pins the AddDocument/RetrieveScored synchronisation.
func TestRetrieverConcurrentFeedback(t *testing.T) {
	cat := catalog.Generate()
	r, err := core.NewRetriever(cat, nil)
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers       = 8
		contributions = 40
		lookups       = 60
	)
	questions := []string{
		"How many PDU sessions are currently active?",
		"registration storm indicator",
		"What is the paging success rate?",
		"heartbeat failures in the last hour",
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < readers; w++ {
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
				if got := r.RetrieveScored(q, 29); len(got) == 0 {
					t.Errorf("worker %d: empty retrieval for %q", w, q)
					return
				}
				r.Doc("amfcc_n1_auth_request")
				if i >= lookups {
					return
				}
			}
		}(w)
	}

	for i := 0; i < contributions; i++ {
		name := fmt.Sprintf("expert_contributed_metric_%d", i)
		m := cat.AddExpertMetricDoc(name,
			fmt.Sprintf("Expert jargon alias number %d for a recurring operator question.", i),
			"r.nakamura")
		if err := r.AddDocument(catalog.Document{ID: m.Name, Text: m.Doc(), Metric: m}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// Every contribution is visible after the storm.
	if d, ok := r.Doc("expert_contributed_metric_39"); !ok || !strings.Contains(d.Text, "alias number 39") {
		t.Fatalf("contributed document missing after concurrent load: %+v ok=%v", d, ok)
	}
}

// TestRetrievalCacheVersioning asserts the question→result cache serves
// repeats without recomputation yet reflects new documents immediately:
// entries are keyed to the retriever version, which every AddDocument
// bumps.
func TestRetrievalCacheVersioning(t *testing.T) {
	cat := catalog.Generate()
	r, err := core.NewRetriever(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	const q = "What is the current attach pressure level?"

	first := r.RetrieveScored(q, 10)
	repeat := r.RetrieveScored(q, 10)
	if len(first) != len(repeat) {
		t.Fatalf("cached retrieval changed size: %d vs %d", len(first), len(repeat))
	}
	for i := range first {
		if first[i] != repeat[i] {
			t.Fatalf("cached retrieval differs at %d: %+v vs %+v", i, first[i], repeat[i])
		}
	}

	v0 := r.Version()
	m := cat.AddExpertMetricDoc("amfcc_initial_registration_attempt",
		"The attach pressure level is this counter's fleet-wide total.", "a.kimura")
	if err := r.AddDocument(catalog.Document{ID: m.Name, Text: m.Doc(), Metric: m}); err != nil {
		t.Fatal(err)
	}
	if r.Version() == v0 {
		t.Fatal("AddDocument did not bump the retriever version")
	}

	after := r.RetrieveScored(q, 10)
	found := false
	for _, s := range after {
		if s.Doc.ID == "amfcc_initial_registration_attempt" && strings.Contains(s.Doc.Text, "attach pressure") {
			found = true
		}
	}
	if !found {
		t.Fatalf("post-contribution retrieval does not surface the expert doc; got %v", ids(after))
	}
}

func ids(s []core.ScoredDoc) []string {
	out := make([]string, len(s))
	for i, d := range s {
		out[i] = d.Doc.ID
	}
	return out
}
