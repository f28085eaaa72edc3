// Command dio-bench prints the paper's evaluation (§4) and the extension
// ablations: every section EXPERIMENTS.md holds between its generated
// markers, rendered by benchmark.Experiments over the two-hour simulated
// trace and the 200 seed-7 questions. It takes no flags:
//
//	go run ./cmd/dio-bench
//
// TestExperimentsDoc compares the same sections with EXPERIMENTS.md, and
// `go test -run TestExperimentsDoc -update .` rewrites them there.
package main

import (
	"context"
	"fmt"
	"os"

	"dio/internal/benchmark"
)

func main() {
	env, err := benchmark.NewEnv()
	if err == nil {
		var sections []benchmark.Section
		if sections, err = benchmark.Experiments(context.Background(), env); err == nil {
			for _, s := range sections {
				fmt.Printf("<!-- generated: %s -->\n%s<!-- end %s -->\n\n", s.Name, s.Text, s.Name)
			}
			return
		}
	}
	fmt.Fprintln(os.Stderr, "dio-bench:", err)
	os.Exit(1)
}
