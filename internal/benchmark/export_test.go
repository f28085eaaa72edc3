package benchmark_test

import (
	"bytes"
	"strings"
	"testing"

	"dio/internal/benchmark"
	"dio/internal/llm"
)

func sampleResult() *benchmark.Result {
	return &benchmark.Result{
		System: "test-system", Total: 2, Correct: 1,
		MeanCostCents: 1.5,
		PerTask:       map[llm.TaskKind][2]int{llm.TaskRate: {1, 2}},
		Items: []benchmark.ItemResult{
			{Item: benchmark.Item{ID: 1, Question: "q1, with comma", Task: llm.TaskRate, Reference: "sum(rate(x[5m]))"},
				Query: "sum(rate(x[5m]))", Correct: true, CostCents: 2,
				Usage: llm.Usage{PromptTokens: 100, CompletionTokens: 10}},
			{Item: benchmark.Item{ID: 2, Question: "q2", Task: llm.TaskRate, Reference: "sum(rate(y[5m]))"},
				Query: "sum(rate(z[5m]))", Err: "nope"},
		},
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := benchmark.WriteCSV(&buf, sampleResult()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "system,item_id,task,") {
		t.Errorf("header = %q", lines[0])
	}
	// Comma in the question is quoted correctly.
	if !strings.Contains(lines[1], `"q1, with comma"`) {
		t.Errorf("row = %q", lines[1])
	}
	if !strings.Contains(lines[2], "nope") {
		t.Errorf("error row = %q", lines[2])
	}
}
