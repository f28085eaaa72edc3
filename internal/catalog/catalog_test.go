package catalog

import (
	"strings"
	"testing"
)

func TestGenerateCount(t *testing.T) {
	db := Generate()
	s := db.Stats()
	t.Log(s)
	if s.Metrics < 3000 {
		t.Errorf("catalog has %d metrics, the paper requires >3000", s.Metrics)
	}
	// All six NFs of §4 are covered.
	for _, nf := range NFNames() {
		if s.PerNF[nf] == 0 {
			t.Errorf("no metrics for NF %s", nf)
		}
	}
	if s.Functions < 10 {
		t.Errorf("only %d bespoke functions", s.Functions)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(), Generate()
	if len(a.Metrics) != len(b.Metrics) {
		t.Fatalf("metric counts differ: %d vs %d", len(a.Metrics), len(b.Metrics))
	}
	for i := range a.Metrics {
		if a.Metrics[i].Name != b.Metrics[i].Name || a.Metrics[i].Description != b.Metrics[i].Description {
			t.Fatalf("metric %d differs between generations", i)
		}
	}
}

func TestMetricNamesUnique(t *testing.T) {
	db := Generate()
	seen := make(map[string]bool, len(db.Metrics))
	for _, m := range db.Metrics {
		if seen[m.Name] {
			t.Errorf("duplicate metric name %s", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestPaperExampleMetricExists(t *testing.T) {
	db := Generate()
	// The paper's §3.1 example.
	m, ok := db.Lookup("amfcc_n1_auth_request")
	if !ok {
		t.Fatal("amfcc_n1_auth_request missing")
	}
	for _, want := range []string{"authentication requests sent by AMF", "AUTHENTICATION REQUEST", "3GPP TS 24.501", "64-bit counter"} {
		if !strings.Contains(m.Description, want) {
			t.Errorf("description missing %q: %s", want, m.Description)
		}
	}
	// The paper's §4.2.3 example: the LCS NI-LR metrics use full-form
	// names (which is why DIN-SQL's compositional guess fails).
	if _, ok := db.Lookup("amfcc_lcs_network_induced_location_request_success"); !ok {
		t.Error("LCS NI-LR success metric missing")
	}
	if _, ok := db.Lookup("amfcc_lcs_ni_lr_success"); ok {
		t.Error("the abbreviated LCS name should NOT exist (it is DIN-SQL's wrong guess)")
	}
}

func TestProcedureFamilies(t *testing.T) {
	db := Generate()
	for _, p := range Procedures()[:10] {
		var fam []*Metric
		for _, m := range db.Metrics {
			if m.NF == p.NF && m.Service == p.Service && m.Procedure == p.Slug {
				fam = append(fam, m)
			}
		}
		// 8 lifecycle + 10 failure causes + 6 reject causes + 3 histogram.
		want := len(CounterVariants) + len(FailureCauses) + len(RejectCauses) + 3
		if len(fam) != want {
			t.Errorf("procedure %s has %d metrics, want %d", p.Slug, len(fam), want)
		}
		for _, v := range CounterVariants {
			if _, ok := db.Lookup(p.MetricName(v)); !ok {
				t.Errorf("missing %s", p.MetricName(v))
			}
		}
	}
}

func TestDescriptionsAreComplete(t *testing.T) {
	db := Generate()
	for _, m := range db.Metrics {
		if m.Description == "" {
			t.Fatalf("metric %s has no description", m.Name)
		}
		if m.NF == "" {
			t.Fatalf("metric %s has no NF", m.Name)
		}
		if len(m.Labels) == 0 {
			t.Fatalf("metric %s has no label dimensions", m.Name)
		}
	}
}

func TestDocumentsSegmentation(t *testing.T) {
	db := Generate()
	docs := db.Documents()
	if len(docs) != len(db.Metrics)+len(db.Functions) {
		t.Fatalf("got %d documents, want %d", len(docs), len(db.Metrics)+len(db.Functions))
	}
	// Each metric doc leads with its name (the segmentation of §4).
	for _, d := range docs[:50] {
		if d.Metric != nil && !strings.HasPrefix(d.Text, d.Metric.Name+": ") {
			t.Errorf("doc %s text does not lead with the name", d.ID)
		}
	}
}

func TestBespokeFunctions(t *testing.T) {
	for _, f := range BespokeFunctions() {
		if f.Author == "" {
			t.Errorf("function %s has no expert attribution", f.Name)
		}
		args := make([]string, f.Arity)
		for i := range args {
			args[i] = "m" + string(rune('0'+i))
		}
		q, err := f.Expand(args...)
		if err != nil || q == "" {
			t.Errorf("function %s does not expand: %v", f.Name, err)
		}
		if _, err := f.Expand(); f.Arity > 0 && err == nil {
			t.Errorf("function %s accepted wrong arity", f.Name)
		}
	}
}

func TestLookupFunction(t *testing.T) {
	db := Generate()
	f, ok := db.LookupFunction("procedure_success_rate")
	if !ok {
		t.Fatal("procedure_success_rate missing")
	}
	q, err := f.Expand("a_success", "a_attempt")
	if err != nil {
		t.Fatal(err)
	}
	if q != "100 * sum(a_success) / sum(a_attempt)" {
		t.Errorf("expanded = %q", q)
	}
	if _, ok := db.LookupFunction("nope"); ok {
		t.Error("unexpected function hit")
	}
}

func TestAddExpertMetricDocExisting(t *testing.T) {
	db := Generate()
	before, _ := db.Lookup("amfmm_paging_attempt")
	origLen := len(before.Description)
	m := db.AddExpertMetricDoc("amfmm_paging_attempt", "Paging storm indicator.", "r.nakamura")
	if m.Expert != "r.nakamura" {
		t.Errorf("expert attribution missing: %+v", m)
	}
	if !strings.HasPrefix(m.Description, "Paging storm indicator.") {
		t.Errorf("expert note should lead the description: %s", m.Description[:60])
	}
	if len(m.Description) <= origLen {
		t.Error("description did not grow")
	}
}

func TestAddExpertMetricDocNew(t *testing.T) {
	db := Generate()
	n := len(db.Metrics)
	m := db.AddExpertMetricDoc("brand_new_metric", "An expert-defined entity.", "a.kimura")
	if len(db.Metrics) != n+1 {
		t.Error("new metric not appended")
	}
	if got, ok := db.Lookup("brand_new_metric"); !ok || got != m {
		t.Error("new metric not indexed")
	}
}

func TestGaugeAndProcedureQuestionsNonEmpty(t *testing.T) {
	for _, p := range Procedures() {
		if len(p.Questions) == 0 {
			t.Errorf("procedure %s has no question phrasings", p.Slug)
		}
		if p.Message == "" || p.Spec == "" {
			t.Errorf("procedure %s missing message/spec", p.Slug)
		}
	}
	for _, g := range Gauges() {
		if len(g.Questions) == 0 {
			t.Errorf("gauge %s has no question phrasings", g.Slug)
		}
	}
}

func TestMetricTypeStrings(t *testing.T) {
	if Counter.String() != "64-bit counter" || Gauge.String() != "gauge" {
		t.Error("metric type strings wrong")
	}
	if MetricTypeSentence(Gauge) != "Gauge." {
		t.Error("type sentence wrong")
	}
}

func TestStatsString(t *testing.T) {
	s := Generate().Stats().String()
	for _, want := range []string{"metrics", "functions", "amf="} {
		if !strings.Contains(s, want) {
			t.Errorf("stats string missing %q: %s", want, s)
		}
	}
}

func TestSelfMetrics(t *testing.T) {
	db := Generate()
	before := len(db.Metrics)
	added := db.AddSelfMetrics()
	if added == 0 || len(db.Metrics) != before+added {
		t.Fatalf("AddSelfMetrics added %d entries (catalog %d -> %d)", added, before, len(db.Metrics))
	}
	for _, name := range []string{
		"dio_ask_total", "dio_ask_duration_seconds_bucket",
		"dio_ask_duration_seconds_sum", "dio_ask_duration_seconds_count",
		"dio_http_requests_total", "dio_feedback_issues",
	} {
		m, ok := db.Lookup(name)
		if !ok {
			t.Errorf("self-metric %s not registered", name)
			continue
		}
		if m.NF != "dio" {
			t.Errorf("%s: NF = %q, want dio", name, m.NF)
		}
		if m.Description == "" {
			t.Errorf("%s: empty description", name)
		}
	}
	if m, _ := db.Lookup("dio_ask_duration_seconds_bucket"); m != nil && m.Type != HistogramBucket {
		t.Errorf("bucket series has type %v, want HistogramBucket", m.Type)
	}
	// Idempotent: a second call adds nothing.
	if again := db.AddSelfMetrics(); again != 0 {
		t.Errorf("second AddSelfMetrics added %d entries, want 0", again)
	}
}
