package main

import (
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"dio/internal/catalog"
)

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
}

func TestSegmentMiddleSurvivesOneStall(t *testing.T) {
	// Six one-second segments with ten 1 ms operations each, except that
	// the fourth stalls, every operation there taking 50 ms, and the sixth
	// runs in a slower regime at 2 ms.
	var samples []sample
	for seg := 0; seg < segments; seg++ {
		for i := 0; i < 10; i++ {
			d := 1.0
			switch seg {
			case 3:
				d = 50
			case 5:
				d = 2
			}
			samples = append(samples, sample{seg: seg, durMS: d})
		}
	}
	segs := bySegment(samples, time.Second)
	if segs[3].p50 != 50 || segs[5].n != 10 || segs[0].opsPerS != 10 {
		t.Fatalf("segments = %+v", segs)
	}
	if got, want := summarize(samples, time.Second).p50, (midSpread{mid: 1.25, lo: 1, hi: 50}); got != want {
		t.Errorf("p50 over segments = %+v, want %+v", got, want)
	}
}

func TestSequenceDependsOnSeedOnly(t *testing.T) {
	cat := catalog.Generate()
	cat.AddSelfMetrics()
	hash := func(name string, seed int64) string {
		w, err := newWorkload(name, cat, seed)
		if err != nil {
			t.Fatal(err)
		}
		return w.sequenceHash(64)
	}
	for _, name := range workloadNames {
		if a, b := hash(name, 7), hash(name, 7); a != b {
			t.Errorf("%s: seed 7 gives sequences %s and %s", name, a, b)
		}
		// One workload value serves the server and then the lab.
		w, _ := newWorkload(name, cat, 7)
		if a, b := w.sequenceHash(64), w.sequenceHash(64); a != b || a != hash(name, 7) {
			t.Errorf("%s: a second pass over one workload gives another sequence", name)
		}
		if a, b := hash(name, 7), hash(name, 8); a == b {
			t.Errorf("%s: seeds 7 and 8 give the same sequence", name)
		}
	}
	if _, err := newWorkload("nope", cat, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestWrittenReadStepCount(t *testing.T) {
	// After 3 pushes only the stamps of pushes 1 and 2 have two samples in
	// their window; the range ends at push 2 and steps 3 s back from there.
	if r := writtenRead(3); r.wantSteps != 1 {
		t.Errorf("3 pushes: %d steps, want 1", r.wantSteps)
	}
	// Once the window is full every step counts, both ends included.
	if r := writtenRead(700); r.wantSteps != rangeSteps+1 {
		t.Errorf("700 pushes: %d steps, want %d", r.wantSteps, rangeSteps+1)
	}
}

// benchmarkFile is the schema of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range f.Workloads {
		listed = append(listed, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(listed, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", listed, workloadNames)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%+v\nthe benchmark reports\n%+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the benchmark's list")
	}
	if len(workloadNames) < 2 || len(workloadNames) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed 8, 16 and 128", len(workloadNames), len(endToEnd), len(perLayer))
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 || !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("run_seconds %d, paths %v", f.RunSeconds, f.Paths)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, n := range workloadNames {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("bad or repeated name %q", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
		hasSetup = hasSetup || d == metricDef{Name: "setup_s", Unit: "s", Better: lower, Bound: d.Bound}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
}

func TestResultLineHoldsEveryMetric(t *testing.T) {
	res := &result{Attempted: 10, EndToEnd: values{}, PerLayer: values{}}
	for traced, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
		line, err := resultLine(res, traced)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if !got.Correct || got.Attempted != 10 || len(got.Metrics) != len(defs) {
			t.Errorf("traced=%v: %s", traced, line)
		}
		for _, d := range defs {
			if got.Metrics[d.Name].Unit != d.Unit {
				t.Errorf("traced=%v: metric %s missing or with the wrong unit", traced, d.Name)
			}
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 0, Parent: -1, StartNS: 0, EndNS: 100},
		// Two children overlap on [30,40) and one sticks out past the
		// parent: together they cover [10,60) and [90,100).
		{Name: "a", ID: 1, Parent: 0, StartNS: 10, EndNS: 40},
		{Name: "b", ID: 2, Parent: 0, StartNS: 30, EndNS: 60},
		{Name: "c", ID: 3, Parent: 0, StartNS: 90, EndNS: 120},
		// A grandchild inside a.
		{Name: "d", ID: 4, Parent: 1, StartNS: 15, EndNS: 25},
		// Replayed children of b ran later; they count by duration, and
		// b's decorated child e, whose work they re-measure, is ignored.
		{Name: "e", ID: 5, Parent: 2, StartNS: 35, EndNS: 55},
		{Name: "f", ID: 6, Parent: 2, StartNS: 200, EndNS: 212, Replayed: true},
		{Name: "g", ID: 7, Parent: 2, StartNS: 300, EndNS: 310, Replayed: true},
		// A replayed child longer than its parent leaves no negative self.
		{Name: "h", ID: 8, Parent: 6, StartNS: 400, EndNS: 450, Replayed: true},
	}
	want := []int64{40, 20, 8, 30, 10, 20, 0, 10, 50}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	rows, rootMS := ledger(spans)
	if rootMS != 100e-6 || rows[0].name != "h" {
		t.Errorf("ledger: root %v ms, first row %+v", rootMS, rows[0])
	}
	if verdict, ok := reconcile(spans, "b"); !ok || !strings.HasPrefix(verdict, "UNRECONCILED") {
		t.Errorf("22 of 30 ns replayed: %q", verdict)
	}
}

func TestRecorderNestsAndReplays(t *testing.T) {
	r := newRecorder()
	if id := r.span("off", func() {}); id != -1 || len(r.spans) != 0 {
		t.Fatal("a recorder that is off recorded a span")
	}
	r.setOn(true)
	var inner int
	root := r.span(rootSpan, func() {
		inner = r.span("core.ask", func() { r.leaf("tsdb.select", r.origin, 3) })
	})
	whole := r.replay(inner, "sandbox.execute", true, func() { r.leaf("tsdb.select", r.origin, 1) })
	part := r.replay(whole, "promql.exec", false, func() { r.leaf("tsdb.select", r.origin, 2) })
	r.span(rootSpan, func() {})
	if len(r.spans) != 7 {
		t.Fatalf("%d spans, want 7: the quiet replay must drop its leaf", len(r.spans))
	}
	for _, tc := range []struct {
		id, parent, trace int
		replayed          bool
	}{{root, -1, 1, false}, {inner, root, 1, false}, {2, inner, 1, false}, {whole, inner, 1, true}, {part, whole, 1, true}, {5, part, 1, true}, {6, -1, 2, false}} {
		s := r.spans[tc.id]
		if s.Parent != tc.parent || s.Trace != tc.trace || s.Replayed != tc.replayed || s.EndNS < s.StartNS {
			t.Errorf("span %d = %+v, want parent %d trace %d replayed %v", tc.id, s, tc.parent, tc.trace, tc.replayed)
		}
	}
}

func TestProcParsers(t *testing.T) {
	cpu, err := parseStatCPU("4242 (dio server) x) S 1 4242 4242 0 -1 4194560 9 0 0 0 150 25 0 0 20 0 8 0 100 1 1")
	if err != nil || cpu != 1.75 {
		t.Errorf("parseStatCPU = %v, %v; want 1.75", cpu, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("a malformed stat line parsed")
	}
	e, err := parseExposition(strings.NewReader("# HELP x\nx_total{cache=\"retrieval\",outcome=\"hit\"} 3\nx_total{cache=\"answer\",outcome=\"hit\"} 5\nx_total_more 7\ny 2.5e+07\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.sum("x_total", `cache="retrieval"`); got != 3 {
		t.Errorf("sum with a label = %v, want 3", got)
	}
	if got := e.sum("x_total"); got != 8 {
		t.Errorf("sum over label sets = %v, want 8", got)
	}
	if got := e.sum("y"); got != 2.5e7 {
		t.Errorf("bare metric = %v", got)
	}
}

func TestCheckCatchesWrongResponses(t *testing.T) {
	e := &expectations{
		asks:   []askExpect{{query: "sum(x)", answer: "42"}},
		ranges: []rangeExpect{{series: 2, points: 4}, {series: 2}},
	}
	ask := request{kind: opAsk, key: 0}
	okAsk := []byte(`{"status":"success","query":"sum(x)","answer":"42"}`)
	matrix := []byte(`{"status":"success","data":{"resultType":"matrix","result":[{"values":[[1,"1"],[2,"1"]]},{"values":[[1,"1"],[2,"1"]]}]}}`)
	for _, tc := range []struct {
		name   string
		r      request
		status int
		cache  string
		want   string
		body   []byte
		ok     bool
	}{
		{"ask", ask, 200, "bypass", "bypass", okAsk, true},
		{"ask wrong answer", ask, 200, "bypass", "bypass", []byte(`{"status":"success","query":"sum(x)","answer":"41"}`), false},
		{"ask wrong cache header", ask, 200, "miss", "hit", okAsk, false},
		{"ask shed", ask, http.StatusTooManyRequests, "", "", []byte(`{"status":"error"}`), false},
		{"range", request{kind: opRange, key: 0}, 200, "", "", matrix, true},
		{"range with step count", request{kind: opRange, key: 1, wantSteps: 2}, 200, "", "", matrix, true},
		{"range short", request{kind: opRange, key: 1, wantSteps: 3}, 200, "", "", matrix, false},
		{"push", request{kind: opPush, wantAppended: 7}, 200, "", "", []byte(`{"status":"success","appended":7}`), true},
		{"push dropped samples", request{kind: opPush, wantAppended: 7}, 200, "", "", []byte(`{"status":"success","appended":6,"outOfOrder":1}`), false},
	} {
		if err := check(e, tc.r, tc.status, tc.cache, tc.want, tc.body); (err == nil) != tc.ok {
			t.Errorf("%s: check = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
