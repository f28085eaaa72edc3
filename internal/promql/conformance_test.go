package promql

// conformance_test.go runs testdata/conformance/*.test: scripts in the
// shape of Prometheus's promqltest (`load`, `eval instant at`)
// whose expected values are derived by hand from Prometheus 3.x semantics,
// not produced by this engine. Every eval runs on the executor and on the
// oracle; the two share kernels.go, so this corpus — not their agreement —
// is what says the kernels are right.
//
// Script grammar, one command per block, `#` starts a comment line:
//
//	load <step>
//	    <series> <values>...     a+bxn / a-bxn (n+1 points), axn, a literal,
//	                             NaN, Inf, -Inf, or _ for "no sample"
//	eval instant at <t> <expr>
//	    <series> <value>         one line per expected series; a bare
//	                             <value> expects a scalar
//	eval_ordered instant at <t> <expr>   as eval, result order checked too
//	eval_fail instant at <t> <expr>      the evaluation must fail
//
// A `# deviation: <reason>` line directly above an eval marks a case
// where this engine is known to disagree with the expectation. The
// expectation stays in the file; the runner requires executor and oracle
// to still agree with each other, and fails if they start matching the
// expectation (the marker is then stale). DESIGN §7 lists the deviations.

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dio/internal/tsdb"
)

// conformanceMinEvals guards against the corpus silently shrinking.
const conformanceMinEvals = 40

type conformanceEval struct {
	line      int
	at        time.Time
	expr      string
	ordered   bool
	fail      bool
	deviation string
	want      []conformanceSample
}

type conformanceSample struct {
	key    string // canonical label key; "" with scalar set means a scalar
	scalar bool
	v      float64
}

func TestConformanceCorpus(t *testing.T) {
	files, err := filepath.Glob("testdata/conformance/*.test")
	if err != nil || len(files) == 0 {
		t.Fatalf("no conformance scripts found: %v", err)
	}
	evals, deviations := 0, 0
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			e, d := runConformanceFile(t, f)
			evals += e
			deviations += d
		})
	}
	t.Logf("conformance: %d evals over %d scripts, %d marked deviations", evals, len(files), deviations)
	if evals < conformanceMinEvals {
		t.Errorf("corpus has %d evals, want at least %d", evals, conformanceMinEvals)
	}
}

func runConformanceFile(t *testing.T, path string) (evals, deviations int) {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	db := tsdb.New()
	deviation := ""
	for i := 0; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		switch {
		case line == "":
			deviation = ""
		case strings.HasPrefix(line, "# deviation:"):
			deviation = strings.TrimSpace(strings.TrimPrefix(line, "# deviation:"))
		case strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "load "):
			step, err := ParseDuration(strings.TrimSpace(strings.TrimPrefix(line, "load ")))
			if err != nil {
				t.Fatalf("%s:%d: %v", path, i+1, err)
			}
			for i+1 < len(lines) && isIndented(lines[i+1]) {
				i++
				if err := loadConformanceSeries(db, step, strings.TrimSpace(lines[i])); err != nil {
					t.Fatalf("%s:%d: %v", path, i+1, err)
				}
			}
		case strings.HasPrefix(line, "eval"):
			ev, err := parseConformanceEval(line)
			if err != nil {
				t.Fatalf("%s:%d: %v", path, i+1, err)
			}
			ev.line, ev.deviation = i+1, deviation
			for i+1 < len(lines) && isIndented(lines[i+1]) {
				i++
				s, err := parseConformanceSample(strings.TrimSpace(lines[i]))
				if err != nil {
					t.Fatalf("%s:%d: %v", path, i+1, err)
				}
				ev.want = append(ev.want, s)
			}
			checkConformanceEval(t, path, db, ev)
			evals++
			if ev.deviation != "" {
				deviations++
			}
			deviation = ""
		default:
			t.Fatalf("%s:%d: unknown command %q", path, i+1, line)
		}
	}
	return evals, deviations
}

func isIndented(s string) bool {
	return strings.TrimSpace(s) != "" && (s[0] == ' ' || s[0] == '\t') && !strings.HasPrefix(strings.TrimSpace(s), "#")
}

// conformanceLabels parses a series descriptor — metric{l="v"}, {l="v"} or
// {} — into a label set, reusing the PromQL selector parser.
func conformanceLabels(desc string) (tsdb.Labels, error) {
	if desc == "{}" {
		return nil, nil
	}
	expr, err := Parse(desc)
	if err != nil {
		return nil, err
	}
	vs, ok := expr.(*VectorSelector)
	if !ok {
		return nil, fmt.Errorf("series descriptor %q is not a selector", desc)
	}
	m := map[string]string{}
	for _, mt := range vs.Matchers {
		if mt.Type != tsdb.MatchEqual {
			return nil, fmt.Errorf("series descriptor %q: only = matchers", desc)
		}
		m[mt.Name] = mt.Value
	}
	return tsdb.FromMap(m), nil
}

// splitSeriesLine separates the series descriptor from what follows it;
// label values may contain spaces, so split after the closing brace.
func splitSeriesLine(line string) (desc, rest string) {
	if i := strings.Index(line, "}"); i >= 0 {
		return line[:i+1], strings.TrimSpace(line[i+1:])
	}
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		return line[:i], strings.TrimSpace(line[i:])
	}
	return line, ""
}

func loadConformanceSeries(db *tsdb.DB, step time.Duration, line string) error {
	desc, rest := splitSeriesLine(line)
	ls, err := conformanceLabels(desc)
	if err != nil {
		return err
	}
	idx := 0
	for _, tok := range strings.Fields(rest) {
		vals, err := expandConformanceValues(tok)
		if err != nil {
			return err
		}
		for _, v := range vals {
			if v != nil {
				if err := db.Append(ls, (time.Duration(idx) * step).Milliseconds(), *v); err != nil {
					return err
				}
			}
			idx++
		}
	}
	return nil
}

// expandConformanceValues expands one value token; nil entries are gaps.
func expandConformanceValues(tok string) ([]*float64, error) {
	if tok == "_" {
		return []*float64{nil}, nil
	}
	if x := strings.LastIndex(tok, "x"); x > 0 {
		n, err := strconv.Atoi(tok[x+1:])
		if err != nil {
			return nil, fmt.Errorf("bad repeat in %q", tok)
		}
		start, delta := tok[:x], 0.0
		// The sign of the first number is not a separator: search from 1.
		if sep := strings.IndexAny(tok[1:x], "+-"); sep >= 0 {
			sep++
			start = tok[:sep]
			if delta, err = strconv.ParseFloat(tok[sep:x], 64); err != nil {
				return nil, fmt.Errorf("bad delta in %q", tok)
			}
		}
		a, err := strconv.ParseFloat(start, 64)
		if err != nil {
			return nil, fmt.Errorf("bad start in %q", tok)
		}
		out := make([]*float64, 0, n+1)
		for i := 0; i <= n; i++ {
			v := a + float64(i)*delta
			out = append(out, &v)
		}
		return out, nil
	}
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return nil, fmt.Errorf("bad value %q", tok)
	}
	return []*float64{&v}, nil
}

func parseConformanceEval(line string) (conformanceEval, error) {
	var ev conformanceEval
	f := strings.Fields(line)
	if len(f) < 5 || f[1] != "instant" || f[2] != "at" {
		return ev, fmt.Errorf("want `eval[_ordered|_fail] instant at <t> <expr>`, got %q", line)
	}
	switch f[0] {
	case "eval":
	case "eval_ordered":
		ev.ordered = true
	case "eval_fail":
		ev.fail = true
	default:
		return ev, fmt.Errorf("unknown command %q", f[0])
	}
	var at time.Duration
	if f[3] != "0" {
		var err error
		if at, err = ParseDuration(f[3]); err != nil {
			return ev, err
		}
	}
	ev.at = time.UnixMilli(at.Milliseconds())
	ev.expr = strings.TrimSpace(line[strings.Index(line, " "+f[3]+" ")+len(f[3])+2:])
	return ev, nil
}

func parseConformanceSample(line string) (conformanceSample, error) {
	desc, rest := splitSeriesLine(line)
	if rest == "" {
		v, err := strconv.ParseFloat(desc, 64)
		return conformanceSample{scalar: true, v: v}, err
	}
	ls, err := conformanceLabels(desc)
	if err != nil {
		return conformanceSample{}, err
	}
	v, err := strconv.ParseFloat(rest, 64)
	return conformanceSample{key: ls.Key(), v: v}, err
}

func checkConformanceEval(t *testing.T, path string, db *tsdb.DB, ev conformanceEval) {
	t.Helper()
	eng := NewEngine(db, DefaultEngineOptions())
	ctx := context.Background()
	ex, exErr := eng.Query(ctx, ev.expr, ev.at)
	or, orErr := oracleQuery(ctx, eng, ev.expr, ev.at)
	where := fmt.Sprintf("%s:%d: %s", path, ev.line, ev.expr)

	if ev.fail {
		if exErr == nil || orErr == nil {
			t.Errorf("%s: want failure, got executor err=%v oracle err=%v", where, exErr, orErr)
		}
		return
	}
	if exErr != nil || orErr != nil {
		t.Errorf("%s: executor err=%v oracle err=%v", where, exErr, orErr)
		return
	}
	exMiss := conformanceMismatch(ev, ex)
	orMiss := conformanceMismatch(ev, or)
	if ev.deviation == "" {
		if exMiss != "" {
			t.Errorf("%s: executor: %s", where, exMiss)
		}
		if orMiss != "" {
			t.Errorf("%s: oracle: %s", where, orMiss)
		}
		return
	}
	if FormatValue(ex) != FormatValue(or) {
		t.Errorf("%s: executor and oracle disagree on a marked deviation\nexecutor:\n%s\noracle:\n%s", where, FormatValue(ex), FormatValue(or))
	}
	if exMiss == "" {
		t.Errorf("%s: marked `# deviation: %s` but the engine now matches; drop the marker", where, ev.deviation)
	}
	t.Logf("%s: known deviation (%s): %s", where, ev.deviation, exMiss)
}

// conformanceMismatch describes how got differs from ev.want ("" if not).
func conformanceMismatch(ev conformanceEval, got Value) string {
	var have []conformanceSample
	switch x := got.(type) {
	case Scalar:
		have = []conformanceSample{{scalar: true, v: x.V}}
	case Vector:
		for _, s := range x {
			have = append(have, conformanceSample{key: s.Labels.Key(), v: s.V})
		}
	default:
		return fmt.Sprintf("unsupported result type %s", got.ValueType())
	}
	if len(have) != len(ev.want) {
		return fmt.Sprintf("got %d samples, want %d:\n%s", len(have), len(ev.want), FormatValue(got))
	}
	for i, w := range ev.want {
		var h *conformanceSample
		if ev.ordered || w.scalar {
			h = &have[i]
		} else {
			for j := range have {
				if have[j].key == w.key {
					h = &have[j]
				}
			}
		}
		if h == nil || h.key != w.key || h.scalar != w.scalar {
			return fmt.Sprintf("expected series %q missing or out of order:\n%s", w.key, FormatValue(got))
		}
		if !almostEqual(h.v, w.v) {
			return fmt.Sprintf("series %q = %v, want %v", w.key, h.v, w.v)
		}
	}
	return ""
}

// almostEqual is promqltest's comparison: NaN equals NaN, infinities must
// match exactly, everything else within a relative 1e-6.
func almostEqual(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if a == b {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	return math.Abs(a-b) <= 1e-6*math.Max(math.Abs(a), math.Abs(b))
}
