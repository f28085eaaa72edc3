package promql

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dio/internal/tsdb"
)

var updatePlans = flag.Bool("update", false, "rewrite testdata/plans.golden from this run's plans")

const plansGolden = "testdata/plans.golden"

// planGoldenQueries is every query TestPlanGolden pins, first occurrence
// kept: the range, long-range and wide corpora, every conformance eval
// expression, FuzzParsePlanEval's extra seeds and the scalar-parameter
// shapes whose argument order the tree must keep.
func planGoldenQueries(t *testing.T) []string {
	qs := append(append(append([]string{}, rangeCorpus...), longRangeCorpus...), wideCorpus...)
	files, err := filepath.Glob("testdata/conformance/*.test")
	if err != nil || len(files) == 0 {
		t.Fatalf("no conformance scripts found: %v", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if line = strings.TrimSpace(line); !strings.HasPrefix(line, "eval") {
				continue
			}
			ev, err := parseConformanceEval(line)
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			qs = append(qs, ev.expr)
		}
	}
	qs = append(qs, fuzzSeeds...)
	qs = append(qs,
		"quantile_over_time(0.9, m[5m])",
		"quantile_over_time(scalar(sum(x)), m[5m])",
		"topk(scalar(sum(x)), y)",
	)
	seen := map[string]bool{}
	out := qs[:0]
	for _, q := range qs {
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// renderSkeleton draws an analyzed operator tree with the Explain tree's
// layout and none of the measurements.
func renderSkeleton(b *strings.Builder, o *OpStats, head, tail string) {
	b.WriteString(head)
	b.WriteString(o.Op)
	b.WriteByte('\n')
	for i, c := range o.Children {
		if i == len(o.Children)-1 {
			renderSkeleton(b, c, tail+"└─ ", tail+"   ")
		} else {
			renderSkeleton(b, c, tail+"├─ ", tail+"│  ")
		}
	}
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimSuffix(s, "\n"), "\n", "\n  ") + "\n"
}

// explainCompact returns the one-line form of expr's compiled plan: the
// sandbox audit's plan and the promql.plan span attribute.
func explainCompact(e *Engine, expr Expr) (string, error) {
	cp, _, err := e.planFor(expr)
	if err != nil {
		return "", err
	}
	return cp.compact, nil
}

// TestPlanGolden pins, for every query of planGoldenQueries, the Explain
// tree, the compact form and the EXPLAIN ANALYZE operator skeleton (an
// instant evaluation over an empty store, measurements stripped), and
// checks that the skeleton is the Explain tree. Run with -update to
// rewrite testdata/plans.golden, and read its diff.
func TestPlanGolden(t *testing.T) {
	eng := NewEngine(tsdb.New(), DefaultEngineOptions())
	at := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	var b strings.Builder
	for _, q := range planGoldenQueries(t) {
		b.WriteString("== " + q + "\n")
		expr, err := Parse(q)
		if err != nil {
			b.WriteString("parse error: " + err.Error() + "\n\n")
			continue
		}
		tree, err := eng.Explain(q)
		if err != nil {
			b.WriteString("plan error: " + err.Error() + "\n\n")
			continue
		}
		compact, err := explainCompact(eng, expr)
		if err != nil {
			t.Fatalf("%q: Explain planned but the compact form failed: %v", q, err)
		}
		b.WriteString("tree:\n" + indent(tree))
		b.WriteString("compact: " + compact + "\n")
		ctx, capture := WithQueryStats(context.Background())
		if _, err := eng.Eval(ctx, expr, at); err != nil {
			b.WriteString("analyze error: " + err.Error() + "\n\n")
			continue
		}
		var sk strings.Builder
		renderSkeleton(&sk, capture.Stats().Root, "", "")
		// One operator tree: EXPLAIN ANALYZE prints what Explain prints.
		_, ops, _ := strings.Cut(tree, "\npasses: ")
		if _, ops, _ = strings.Cut(ops, "\n"); ops != sk.String() {
			t.Errorf("%q: EXPLAIN ANALYZE skeleton differs from the Explain tree\nexplain:\n%s\nanalyze:\n%s", q, tree, sk.String())
		}
		b.WriteString("analyze:\n" + indent(sk.String()) + "\n")
	}
	got := b.String()
	if *updatePlans {
		if err := os.WriteFile(plansGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(plansGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("plans differ from %s at line %d:\n got: %s\nwant: %s\n(run with -update and read the diff)", plansGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("plans differ from %s in length: got %d lines, want %d", plansGolden, len(gl), len(wl))
	}
}
