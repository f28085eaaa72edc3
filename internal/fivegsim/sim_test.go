package fivegsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
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
		if _, _, ok := db.MetricTimeRange(m.Name); !ok {
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

// TestPopulateGolden pins the default two-hour trace bit for bit. The
// digest is a SHA-256 over db.AllSeries() in key order: each series'
// Labels.Key() bytes, then every sample's T as a little-endian int64 and
// math.Float64bits(V) as a little-endian uint64. It was computed on the
// simulator before the scrape plan and the append pipeline existed, so it
// holds every later optimisation to the original trace.
func TestPopulateGolden(t *testing.T) {
	const (
		wantDigest  = "be134819f3ca988c2da48ee288115020c2962b9b544759347b96302d52d1b985"
		wantSeries  = 7696
		wantSamples = 1854736
	)
	db, _, _ := populate(t, DefaultConfig())
	h := sha256.New()
	var buf [16]byte
	series, samples := 0, 0
	for _, sr := range db.AllSeries() {
		io.WriteString(h, sr.Labels.Key())
		for _, s := range sr.Samples {
			binary.LittleEndian.PutUint64(buf[:8], uint64(s.T))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(s.V))
			h.Write(buf[:])
		}
		series++
		samples += len(sr.Samples)
	}
	if series != wantSeries || samples != wantSamples {
		t.Errorf("trace has %d series and %d samples, want %d and %d", series, samples, wantSeries, wantSamples)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantDigest {
		t.Errorf("trace digest %s, want %s", got, wantDigest)
	}
}

// TestStagesWriteDisjointCells checks the split Populate's stages rely on,
// under anomalies that move every model: the DES's fork changes no cell
// but its own, the rate models leave the DES's cells exactly as handed
// over, and the histograms the rate stage fills from the DES's draws are
// not the DES's cells.
func TestStagesWriteDisjointCells(t *testing.T) {
	cfg := shortConfig()
	cfg.Anomalies = []Anomaly{
		{Kind: RegistrationStorm, StartOffset: 2 * time.Minute, Duration: 3 * time.Minute, Magnitude: 4},
		{Kind: AuthFailureSpike, StartOffset: 4 * time.Minute, Duration: 3 * time.Minute, Magnitude: 0.5},
		{Kind: TrafficDropSurge, StartOffset: 6 * time.Minute, Duration: 3 * time.Minute, Magnitude: 8},
	}
	s := newSimulator(catalog.Generate(), cfg)
	owned := make(map[int]bool)
	for _, c := range s.des.cells {
		owned[c] = true
	}
	for _, p := range s.des.procs {
		for i := range DurationBuckets {
			if owned[p.buckets+i] {
				t.Fatalf("%s: histogram bucket cell %d is a DES cell", p.key, p.buckets+i)
			}
		}
		if owned[p.sum] || owned[p.count] {
			t.Fatalf("%s: histogram sum or count is a DES cell", p.key)
		}
	}
	f := &frame{des: make([]float64, len(s.des.cells))}
	drawn := 0
	for i := 0; i <= int(cfg.Duration/cfg.Step); i++ {
		s.des.drawn = s.des.drawn[:0]
		s.des.runUntil(float64(i) * s.stepSec)
		f.drawn = s.des.drawn
		drawn += len(f.drawn)
		s.des.gather(f.des)
		for c, v := range s.des.world.vals {
			if v != 0 && !owned[c] {
				t.Fatalf("step %d: the DES wrote cell %d, which is not its own", i, c)
			}
		}
		s.step(i, f)
		for k, c := range s.des.cells {
			if math.Float64bits(s.w.vals[c]) != math.Float64bits(f.des[k]) {
				t.Fatalf("step %d: the rate models moved DES cell %d from %g to %g", i, c, f.des[k], s.w.vals[c])
			}
		}
	}
	if drawn == 0 {
		t.Fatal("the DES drew no durations")
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
		v1, err1 := instant(eng1, q, at)
		v2, err2 := instant(eng2, q, at)
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
		v, err := instant(eng, q, at)
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
