// Command dio-cli is the interactive terminal copilot: type operator
// questions in natural language, get the relevant metrics, the generated
// PromQL, a numeric answer and an ASCII dashboard.
//
//	dio-cli                              # interactive session
//	dio-cli -q "How many PDU sessions are currently active?"
//	dio-cli -q "..." -explain            # print the captured request trace
//	dio-cli -model gpt-3.5-turbo -dashboard=false
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"dio/internal/catalog"
	"dio/internal/core"
	"dio/internal/dashboard"
	"dio/internal/feedback"
	"dio/internal/fivegsim"
	"dio/internal/llm"
	"dio/internal/obs"
	"dio/internal/promql"
	"dio/internal/tsdb"
)

var logger = slog.New(slog.NewTextHandler(os.Stderr, nil)).With("app", "dio-cli")

func fatal(msg string, err error) {
	logger.Error(msg, "err", err)
	os.Exit(1)
}

func main() {
	modelName := flag.String("model", "gpt-4", "foundation model tier")
	question := flag.String("q", "", "ask one question and exit")
	showDash := flag.Bool("dashboard", true, "render ASCII dashboards")
	duration := flag.Duration("duration", time.Hour, "simulated trace length")
	explain := flag.Bool("explain", false, "print the captured request trace (span tree) after each answer")
	analyze := flag.Bool("analyze", false, "profile the generated query and print its EXPLAIN ANALYZE plan after each answer")
	flag.Parse()

	fmt.Fprintln(os.Stderr, "dio-cli: preparing the operator environment…")
	cat := catalog.Generate()
	db := tsdb.New()
	cfg := fivegsim.DefaultConfig()
	cfg.Duration = *duration
	if _, err := fivegsim.Populate(db, cat, cfg); err != nil {
		fatal("populating TSDB", err)
	}
	model, err := llm.New(*modelName)
	if err != nil {
		fatal("model", err)
	}
	cfgCore := core.Config{Catalog: cat, TSDB: db, Model: model}
	if *explain {
		// Trace capture needs the metrics plumbing; the registry is
		// otherwise unused in the CLI.
		cfgCore.Metrics = obs.NewRegistry()
	}
	cp, err := core.New(cfgCore)
	if err != nil {
		fatal("copilot", err)
	}
	if *explain {
		cp.Tracer().EnableCapture(obs.NewTraceStore(64, time.Second), 1)
	}
	tracker := feedback.NewTracker([]string{"r.nakamura", "a.kimura"}, nil)
	feedback.WireCopilot(tracker, cp)

	ctx := context.Background()
	if *analyze {
		ctx = core.WithAnalyze(ctx)
	}
	if *question != "" {
		ask(ctx, cp, *question, *showDash, *explain)
		return
	}

	fmt.Println("DIO copilot — ask about your operator data (\"quit\" to exit, \"help\" for commands).")
	sc := bufio.NewScanner(os.Stdin)
	var lastAnswer *core.Answer
	for {
		fmt.Print("\n> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == "quit" || line == "exit":
			return
		case line == "help":
			fmt.Println("Commands:\n  help              this message\n  quit              exit\n  expert            open an expert-assistance issue for the last answer\n  issues            list feedback issues\n  query <promql>    run PromQL directly through the sandbox\n  explain <promql>  show the optimized execution plan for a query\n  explain -analyze <promql>\n                    execute the query and annotate the plan with\n                    measured per-operator cost (EXPLAIN ANALYZE)\n  metrics <text>    search the domain-specific database\n  audit             show the sandboxed-query audit trail\n  anything else     a natural-language question about operator data")
		case line == "expert":
			if lastAnswer == nil {
				fmt.Println("Ask a question first.")
				continue
			}
			issue := feedback.OpenFromAnswer(tracker, lastAnswer)
			fmt.Printf("Opened issue #%d for expert review.\n", issue.ID)
		case line == "issues":
			for _, is := range tracker.List(-1) {
				fmt.Printf("#%d [%s] %s\n", is.ID, is.State, is.Question)
			}
		case strings.HasPrefix(line, "query "):
			runQuery(ctx, cp, strings.TrimPrefix(line, "query "))
		case strings.HasPrefix(line, "explain "):
			explainQuery(ctx, cp, strings.TrimPrefix(line, "explain "))
		case strings.HasPrefix(line, "metrics "):
			searchMetrics(cp, strings.TrimPrefix(line, "metrics "))
		case line == "audit":
			showAudit(cp)
		default:
			lastAnswer = ask(ctx, cp, line, *showDash, *explain)
		}
	}
}

// runQuery executes raw PromQL at the newest sample of the metrics it
// selects (core.Copilot.EvalTime).
func runQuery(ctx context.Context, cp *core.Copilot, q string) {
	var names []string
	if expr, err := promql.Parse(q); err == nil {
		names = promql.MetricNames(expr)
	}
	v, err := cp.Executor().Execute(ctx, q, cp.EvalTime(names))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(promql.FormatValue(v))
}

// explainQuery prints the optimized execution plan for raw PromQL: the
// operator tree, scan hints and optimizer passes the engine would run.
// With a leading -analyze the query actually executes and every operator
// is annotated with its measured wall time (hot-path percentages), series
// produced and stored samples scanned.
func explainQuery(ctx context.Context, cp *core.Copilot, q string) {
	var (
		plan string
		err  error
	)
	if rest, ok := strings.CutPrefix(q, "-analyze "); ok {
		plan, err = cp.ExplainAnalyzeQuery(ctx, strings.TrimSpace(rest))
	} else {
		plan, err = cp.ExplainQuery(q)
	}
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(plan)
}

// searchMetrics greps the catalog: every query token must appear in the
// metric's name or description.
func searchMetrics(cp *core.Copilot, q string) {
	terms := strings.Fields(strings.ToLower(q))
	shown := 0
	for _, m := range cp.Catalog().MetricsSnapshot() {
		hay := strings.ToLower(m.Name + " " + m.Description)
		match := true
		for _, term := range terms {
			if !strings.Contains(hay, term) {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		fmt.Printf("  %-48s %s\n", m.Name, firstSentence(m.Description))
		if shown++; shown >= 12 {
			fmt.Println("  … (more matches; refine the search)")
			return
		}
	}
	if shown == 0 {
		fmt.Println("  no matches")
	}
}

// showAudit prints the sandbox audit trail.
func showAudit(cp *core.Copilot) {
	a := cp.Executor().Audit()
	if a.Len() == 0 {
		fmt.Println("  (no audited queries yet)")
		return
	}
	for _, e := range a.Entries() {
		line := fmt.Sprintf("  [%s] %-8s %s", e.Time.Format("15:04:05"), e.Outcome, e.Query)
		if e.Error != "" {
			line += " — " + e.Error
		}
		fmt.Println(line)
	}
}

func firstSentence(s string) string {
	if i := strings.IndexByte(s, '.'); i > 0 {
		return s[:i+1]
	}
	return s
}

func ask(ctx context.Context, cp *core.Copilot, q string, showDash, explain bool) *core.Answer {
	ans, err := cp.Ask(ctx, q)
	if err != nil {
		logger.Error("ask failed", "err", err)
		return nil
	}
	fmt.Print(core.RenderAnswer(ans))
	if ans.AnalyzedPlan != "" {
		fmt.Println("\n-- explain analyze --")
		fmt.Print(ans.AnalyzedPlan)
	}
	if showDash && ans.Dashboard != nil {
		names := make([]string, len(ans.Metrics))
		for i, m := range ans.Metrics {
			names[i] = m.Name
		}
		out, err := dashboard.Render(ctx, ans.Dashboard, cp.Executor(), cp.EvalTime(names), 30*time.Minute, time.Minute, 60)
		if err != nil {
			logger.Error("dashboard render failed", "err", err, "trace_id", ans.TraceID)
		} else {
			fmt.Println(out)
		}
	}
	if explain {
		if st := cp.Tracer().Store(); st != nil && ans.TraceID != "" {
			if td, ok := st.Get(ans.TraceID); ok {
				fmt.Println("\n-- trace --")
				fmt.Print(obs.FormatTrace(td))
			}
		}
	}
	return ans
}
