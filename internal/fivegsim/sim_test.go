package fivegsim

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"dio/internal/catalog"
	"dio/internal/promql"
	"dio/internal/tsdb"
)

// shortConfig returns a quick configuration for tests.
func shortConfig() Config {
	cfg := DefaultConfig()
	cfg.Duration = 15 * time.Minute
	return cfg
}

func populate(t testing.TB, cfg Config) (*tsdb.DB, *catalog.Database, *Report) {
	t.Helper()
	db := tsdb.New()
	cat := catalog.Generate()
	rep, err := Populate(db, cat, cfg)
	if err != nil {
		t.Fatalf("populate: %v", err)
	}
	return db, cat, rep
}

func TestPopulateBasics(t *testing.T) {
	db, cat, rep := populate(t, shortConfig())
	if rep.SimulatedUEs == 0 {
		t.Error("no UEs simulated")
	}
	if rep.Samples == 0 || rep.Series == 0 {
		t.Errorf("empty database: %+v", rep)
	}
	// Every catalog metric must have at least one series.
	missing := 0
	for _, m := range cat.Metrics {
		if !db.HasMetric(m.Name) {
			missing++
			if missing < 5 {
				t.Errorf("metric %s has no series", m.Name)
			}
		}
	}
	if missing > 0 {
		t.Errorf("%d catalog metrics missing from the database", missing)
	}
}

func TestPopulateDeterminism(t *testing.T) {
	cfg := shortConfig()
	cfg.Duration = 5 * time.Minute
	db1, _, _ := populate(t, cfg)
	db2, _, _ := populate(t, cfg)
	if db1.NumSamples() != db2.NumSamples() || db1.NumSeries() != db2.NumSeries() {
		t.Fatalf("runs differ: %d/%d series, %d/%d samples",
			db1.NumSeries(), db2.NumSeries(), db1.NumSamples(), db2.NumSamples())
	}
	// Spot-check a counter's final value on both runs.
	eng1 := promql.NewEngine(db1, promql.DefaultEngineOptions())
	eng2 := promql.NewEngine(db2, promql.DefaultEngineOptions())
	_, end, _ := db1.TimeRange()
	at := time.UnixMilli(end)
	for _, q := range []string{
		`sum(amfcc_initial_registration_attempt)`,
		`sum(smfsm_pdu_sessions_active)`,
		`sum(upfgtp_n3_dl_bytes)`,
	} {
		v1, err1 := eng1.Query(context.Background(), q, at)
		v2, err2 := eng2.Query(context.Background(), q, at)
		if err1 != nil || err2 != nil {
			t.Fatalf("query %s: %v / %v", q, err1, err2)
		}
		if !promql.EqualResults(promql.Numeric(v1), promql.Numeric(v2), 0) {
			t.Errorf("%s differs across identical runs: %v vs %v", q, v1, v2)
		}
	}
}

func TestCountersMonotone(t *testing.T) {
	db, _, _ := populate(t, shortConfig())
	for _, name := range []string{
		"amfcc_initial_registration_attempt",
		"smfsm_pdu_session_establishment_success",
		"upfgtp_n3_dl_bytes",
		"nrfnfm_nf_heartbeat_attempt",
	} {
		for _, sr := range db.SelectRange([]*tsdb.Matcher{tsdb.NameMatcher(name)}, 0, 1<<62) {
			prev := -1.0
			for _, s := range sr.Samples {
				if s.V < prev {
					t.Errorf("counter %s %s decreased: %g after %g", name, sr.Labels, s.V, prev)
					break
				}
				prev = s.V
			}
		}
	}
}

func TestLifecycleInvariants(t *testing.T) {
	db, cat, _ := populate(t, shortConfig())
	eng := promql.NewEngine(db, promql.DefaultEngineOptions())
	_, end, _ := db.TimeRange()
	at := time.UnixMilli(end)
	// For every procedure: success ≤ attempt at the end of the run.
	rng := rand.New(rand.NewSource(7))
	procs := catalog.Procedures()
	for i := 0; i < 20; i++ {
		p := procs[rng.Intn(len(procs))]
		q := `sum(` + p.MetricName("success") + `) <= bool sum(` + p.MetricName("attempt") + `)`
		v, err := eng.Query(context.Background(), q, at)
		if err != nil {
			t.Fatalf("query %s: %v", q, err)
		}
		res := promql.Numeric(v)
		if len(res) != 1 || res[0].V != 1 {
			t.Errorf("procedure %s: success > attempt", p.Slug)
		}
	}
	_ = cat
}

func TestGaugesNonNegative(t *testing.T) {
	db, _, _ := populate(t, shortConfig())
	for _, name := range []string{"smfsm_pdu_sessions_active", "amfcc_registered_ues", "upfsess_sessions_active"} {
		for _, sr := range db.SelectRange([]*tsdb.Matcher{tsdb.NameMatcher(name)}, 0, 1<<62) {
			for _, s := range sr.Samples {
				if s.V < 0 {
					t.Errorf("gauge %s went negative: %g", name, s.V)
					break
				}
			}
		}
	}
}

func TestHistogramCumulative(t *testing.T) {
	db, _, _ := populate(t, shortConfig())
	name := "amfcc_initial_registration_duration_seconds_bucket"
	_, end, _ := db.TimeRange()
	pod0, err := tsdb.NewMatcher(tsdb.MatchEqual, "instance", "pod-0")
	if err != nil {
		t.Fatal(err)
	}
	points := db.Select([]*tsdb.Matcher{tsdb.NameMatcher(name), pod0}, end, 5*60*1000)
	if len(points) != len(DurationBuckets)+1 {
		t.Fatalf("got %d bucket series, want %d", len(points), len(DurationBuckets)+1)
	}
	// Bucket counts must be non-decreasing in le (cumulative histogram).
	var infV float64
	maxFinite := -1.0
	for _, p := range points {
		if p.Labels.Get("le") == "+Inf" {
			infV = p.Sample.V
		} else if p.Sample.V > maxFinite {
			maxFinite = p.Sample.V
		}
	}
	if infV < maxFinite {
		t.Errorf("+Inf bucket (%g) below a finite bucket (%g)", infV, maxFinite)
	}
}

func TestDiurnalPositive(t *testing.T) {
	for s := 0.0; s < 7200; s += 100 {
		if diurnal(s) <= 0 {
			t.Fatalf("diurnal(%g) not positive", s)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, lambda := range []float64{0.5, 5, 50} {
		var sum float64
		n := 20000
		for i := 0; i < n; i++ {
			sum += float64(poisson(rng, lambda))
		}
		mean := sum / float64(n)
		if mean < lambda*0.9 || mean > lambda*1.1 {
			t.Errorf("poisson(λ=%g) empirical mean %g outside ±10%%", lambda, mean)
		}
	}
}

func TestPopulateInvalidConfig(t *testing.T) {
	db := tsdb.New()
	cat := catalog.Generate()
	if _, err := Populate(db, cat, Config{}); err == nil {
		t.Fatal("expected error for zero config")
	}
}
