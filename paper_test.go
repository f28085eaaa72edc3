package dio

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"dio/internal/core"
)

// TestPaperHeadlinePinned pins the reproduction's headline (Table 3a and
// §4.2.5) on the seeded 200-question benchmark: DIO copilot over gpt-4
// answers 65% correctly at 8.632 ¢ per query. A change that moves either
// number has changed what the pipeline retrieves, prompts or executes.
func TestPaperHeadlinePinned(t *testing.T) {
	e := env(t)
	r, err := e.eval.Evaluate(context.Background(), e.dio(t, "gpt-4"), e.items)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != 200 || r.EX() != 65 {
		t.Errorf("EX = %g%% over %d questions, want 65%% over 200", r.EX(), r.Total)
	}
	if got := fmt.Sprintf("%.3f", r.MeanCostCents); got != "8.632" {
		t.Errorf("mean cost = %s ¢/query, want 8.632", got)
	}
}

// TestRetrievalGolden pins the context extractor's output for five
// benchmark questions: the ids of the top-29 documents, in rank order, as
// the exact flat index returned them before its scan was rewritten.
func TestRetrievalGolden(t *testing.T) {
	e := env(t)
	raw, err := os.ReadFile("testdata/retrieval_top29.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []struct {
		Question string
		IDs      []string
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != 5 {
		t.Fatalf("golden holds %d questions, want 5", len(golden))
	}
	for i, g := range golden {
		if want := e.items[i*40].Question; g.Question != want {
			t.Fatalf("golden question %d is %q, benchmark item %d is %q", i, g.Question, i*40, want)
		}
		var ids []string
		for _, d := range e.retriever.Retrieve(g.Question, core.DefaultOptions().TopK) {
			ids = append(ids, d.ID)
		}
		if !reflect.DeepEqual(ids, g.IDs) {
			t.Errorf("%q retrieved\n got %v\nwant %v", g.Question, ids, g.IDs)
		}
	}
}
