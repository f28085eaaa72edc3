package vendors_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"dio/internal/catalog"
	"dio/internal/core"
	"dio/internal/fivegsim"
	"dio/internal/llm"
	"dio/internal/promql"
	"dio/internal/tsdb"
	"dio/internal/vendors"
)

func TestVendorBRename(t *testing.T) {
	v := vendors.VendorB()
	cases := map[string]string{
		"amfcc_n1_auth_attempt":                   "amfCcN1AuthAtt",
		"amfcc_initial_registration_success":      "amfCcInitialRegistrationSucc",
		"smfsm_pdu_session_establishment_attempt": "smfSmPduSessionEstablishmentAtt",
		"upfgtp_n3_dl_bytes":                      "upfGtpN3DlBytes",
		"amfcc_registered_ues":                    "amfCcRegisteredUes",
		"nrf_system_cpu_usage_percent":            "nrfSystemCpuUsagePercent",
	}
	for in, want := range cases {
		if got := v.Rename(in); got != want {
			t.Errorf("Rename(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestVendorBNamesAreValidPromQLIdentifiers(t *testing.T) {
	cat := catalog.Generate()
	tr, err := vendors.Translate(cat, vendors.VendorB())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range tr.Catalog.Metrics[:200] {
		q := "sum(" + m.Name + ")"
		if _, err := promql.Parse(q); err != nil {
			t.Fatalf("vendor name %q is not a valid selector: %v", m.Name, err)
		}
	}
}

func TestTranslateBijective(t *testing.T) {
	cat := catalog.Generate()
	tr, err := vendors.Translate(cat, vendors.VendorB())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Catalog.Metrics) != len(cat.Metrics) {
		t.Fatalf("translated %d of %d metrics", len(tr.Catalog.Metrics), len(cat.Metrics))
	}
	for canonical, vendor := range tr.ToVendor {
		if tr.ToCanonical[vendor] != canonical {
			t.Fatalf("mapping not bijective at %s ↔ %s", canonical, vendor)
		}
	}
	// Documentation is rephrased, not copied.
	m, _ := cat.Lookup("amfcc_n1_auth_attempt")
	vm, ok := tr.Catalog.Lookup("amfCcN1AuthAtt")
	if !ok {
		t.Fatal("translated metric missing")
	}
	if vm.Description == m.Description {
		t.Error("vendor description identical to canonical")
	}
	if !strings.Contains(vm.Description, "Peg counter") {
		t.Errorf("vendor phrasing missing: %s", vm.Description)
	}
}

// TestCopilotOverVendorBDeployment is the §5.1 aha: the same pipeline
// answers questions against a vendor-B deployment because the
// domain-specific database documents vendor-B names.
func TestCopilotOverVendorBDeployment(t *testing.T) {
	cat := catalog.Generate()
	vb := vendors.VendorB()
	tr, err := vendors.Translate(cat, vb)
	if err != nil {
		t.Fatal(err)
	}
	db := tsdb.New()
	cfg := fivegsim.DefaultConfig()
	cfg.Duration = 15 * time.Minute
	cfg.RenameMetric = vb.Rename
	if _, err := fivegsim.Populate(db, cat, cfg); err != nil {
		t.Fatal(err)
	}
	// The TSDB speaks vendor B.
	if _, _, ok := db.MetricTimeRange("smfSmPduSessionsActive"); !ok {
		t.Fatal("vendor-B deployment missing renamed series")
	}
	if _, _, ok := db.MetricTimeRange("smfsm_pdu_sessions_active"); ok {
		t.Fatal("canonical names leaked into the vendor-B deployment")
	}

	cp, err := core.New(core.Config{Catalog: tr.Catalog, TSDB: db, Model: llm.MustNew("gpt-4")})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := cp.Ask(context.Background(), "How many PDU sessions are currently active?")
	if err != nil {
		t.Fatal(err)
	}
	if ans.ExecErr != nil {
		t.Fatalf("execution failed: %v (query %s)", ans.ExecErr, ans.Query)
	}
	if !strings.Contains(ans.Query, "smfSmPduSessionsActive") {
		t.Fatalf("query does not use the vendor name: %s", ans.Query)
	}
	if len(promql.Numeric(ans.Value)) == 0 {
		t.Fatal("no numeric answer")
	}
}
