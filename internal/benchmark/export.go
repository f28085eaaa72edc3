package benchmark

import (
	"encoding/csv"
	"io"
	"strconv"
)

// WriteCSV exports per-question outcomes of one or more evaluation runs as
// CSV — the artifact downstream analysis notebooks consume. One row per
// (system, question).
func WriteCSV(w io.Writer, results ...*Result) error {
	cw := csv.NewWriter(w)
	header := []string{"system", "item_id", "task", "question", "reference", "generated", "correct", "error", "cost_cents", "prompt_tokens", "completion_tokens"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range results {
		for _, ir := range r.Items {
			row := []string{
				r.System,
				strconv.Itoa(ir.Item.ID),
				ir.Item.Task.String(),
				ir.Item.Question,
				ir.Item.Reference,
				ir.Query,
				strconv.FormatBool(ir.Correct),
				ir.Err,
				strconv.FormatFloat(ir.CostCents, 'f', 4, 64),
				strconv.Itoa(ir.Usage.PromptTokens),
				strconv.Itoa(ir.Usage.CompletionTokens),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
