package fivegsim

import (
	"context"
	"testing"
	"time"

	"dio/internal/catalog"
	"dio/internal/promql"
	"dio/internal/tsdb"
)

// anomalyTrace populates a 30-minute trace with one anomaly in the middle
// ten minutes.
func anomalyTrace(t *testing.T, a Anomaly) (*tsdb.DB, Config) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Duration = 30 * time.Minute
	cfg.Anomalies = []Anomaly{a}
	db := tsdb.New()
	if _, err := Populate(db, catalog.Generate(), cfg); err != nil {
		t.Fatal(err)
	}
	return db, cfg
}

// instant parses q and evaluates it at ts.
func instant(eng *promql.Engine, q string, ts time.Time) (promql.Value, error) {
	expr, err := promql.Parse(q)
	if err != nil {
		return nil, err
	}
	return eng.Eval(context.Background(), expr, ts)
}

// rateAt evaluates a [5m] rate expression at an offset into the trace.
func rateAt(t *testing.T, db *tsdb.DB, cfg Config, query string, offset time.Duration) float64 {
	t.Helper()
	eng := promql.NewEngine(db, promql.DefaultEngineOptions())
	v, err := instant(eng, query, cfg.Start.Add(offset))
	if err != nil {
		t.Fatalf("query %s: %v", query, err)
	}
	res := promql.Numeric(v)
	if len(res) != 1 {
		t.Fatalf("query %s returned %d results", query, len(res))
	}
	return res[0].V
}

func TestRegistrationStormVisibleInTrace(t *testing.T) {
	db, cfg := anomalyTrace(t, Anomaly{
		Kind: RegistrationStorm, StartOffset: 10 * time.Minute,
		Duration: 10 * time.Minute, Magnitude: 6,
	})
	q := `sum(rate(amfcc_initial_registration_attempt[5m]))`
	before := rateAt(t, db, cfg, q, 9*time.Minute)
	during := rateAt(t, db, cfg, q, 18*time.Minute)
	if during < 3*before {
		t.Errorf("storm not visible: before=%.2f/s during=%.2f/s", before, during)
	}
	// The storm ends: the tail rate decays back down.
	after := rateAt(t, db, cfg, q, 29*time.Minute)
	if after > during {
		t.Errorf("rate kept rising after the storm: during=%.2f after=%.2f", during, after)
	}
}

func TestAuthFailureSpikeDegradesSuccessRate(t *testing.T) {
	db, cfg := anomalyTrace(t, Anomaly{
		Kind: AuthFailureSpike, StartOffset: 10 * time.Minute,
		Duration: 10 * time.Minute, Magnitude: 0.7,
	})
	// Success share of attempts within the spike window versus before.
	q := `sum(increase(amfcc_n1_auth_success[8m])) / sum(increase(amfcc_n1_auth_attempt[8m]))`
	before := rateAt(t, db, cfg, q, 9*time.Minute)
	during := rateAt(t, db, cfg, q, 19*time.Minute)
	if during > before*0.7 {
		t.Errorf("auth spike not visible: before=%.3f during=%.3f", before, during)
	}
}

func TestTrafficDropSurgeRaisesDropRatio(t *testing.T) {
	db, cfg := anomalyTrace(t, Anomaly{
		Kind: TrafficDropSurge, StartOffset: 10 * time.Minute,
		Duration: 10 * time.Minute, Magnitude: 20,
	})
	q := `sum(rate(upfgtp_n3_dl_dropped_packets[5m])) / sum(rate(upfgtp_n3_dl_packets[5m]))`
	before := rateAt(t, db, cfg, q, 9*time.Minute)
	during := rateAt(t, db, cfg, q, 18*time.Minute)
	if during < 5*before {
		t.Errorf("drop surge not visible: before=%.5f during=%.5f", before, during)
	}
}

func TestAnomalyStrings(t *testing.T) {
	if RegistrationStorm.String() != "registration_storm" ||
		AuthFailureSpike.String() != "auth_failure_spike" ||
		TrafficDropSurge.String() != "traffic_drop_surge" {
		t.Error("anomaly names wrong")
	}
}

func TestAnomalyWindow(t *testing.T) {
	a := Anomaly{StartOffset: time.Minute, Duration: time.Minute}
	if a.active(59) || !a.active(60) || !a.active(119) || a.active(120) {
		t.Error("anomaly window boundaries wrong")
	}
}
