package fivegsim

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"dio/internal/catalog"
	"dio/internal/tsdb"
)

// Config parameterises a simulation run. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// Seed makes the whole run deterministic.
	Seed int64
	// Start is the wall-clock time of the first scrape.
	Start time.Time
	// Duration is the simulated time span.
	Duration time.Duration
	// Step is the scrape interval.
	Step time.Duration
	// Instances is the number of instances each NF runs (per-instance
	// series are produced for every metric).
	Instances int
	// UEInterarrival is the mean seconds between new subscriber arrivals.
	UEInterarrival float64
	// UELifetime is the mean seconds a subscriber stays registered.
	UELifetime float64
	// SessionLifetime is the mean seconds a PDU session lasts.
	SessionLifetime float64
	// Anomalies injects incident windows (registration storms, auth
	// failure spikes, traffic drop surges) into the trace.
	Anomalies []Anomaly
}

// DefaultConfig returns the configuration used by the benchmark: a
// two-hour trace at 30-second resolution with two instances per NF.
func DefaultConfig() Config {
	return Config{
		Seed:            42,
		Start:           time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC),
		Duration:        2 * time.Hour,
		Step:            30 * time.Second,
		Instances:       2,
		UEInterarrival:  0.8,
		UELifetime:      1800,
		SessionLifetime: 600,
	}
}

// Report summarises a completed run.
type Report struct {
	Steps        int
	Series       int
	Samples      int64
	SimulatedUEs int
	End          time.Time
}

// String renders the report for logs.
func (r Report) String() string {
	return fmt.Sprintf("fivegsim: %d steps, %d series, %d samples, %d UEs simulated, end=%s",
		r.Steps, r.Series, r.Samples, r.SimulatedUEs, r.End.Format(time.RFC3339))
}

// Populate runs the simulation and appends every scraped sample to db.
// The same (catalog, cfg) always produces the identical database.
//
// Three stages run in step order, each on its own goroutine, so the DES
// can run a few steps ahead of the rate models, which run ahead of the
// appender (one store lock per step). The DES and the rate models draw
// from separate RNG streams and write disjoint cells. The DES hands each
// step's cells and duration draws to the rate stage, which copies the
// cells in (the traffic model follows the session gauge) and records the
// durations. So every stage makes exactly the draws and the totals a
// single goroutine would. An append error stops the simulation and is
// returned.
func Populate(db *tsdb.DB, cat *catalog.Database, cfg Config) (*Report, error) {
	if cfg.Step <= 0 || cfg.Duration <= 0 || cfg.Instances <= 0 {
		return nil, fmt.Errorf("fivegsim: invalid config: step=%v duration=%v instances=%d", cfg.Step, cfg.Duration, cfg.Instances)
	}
	s := newSimulator(cat, cfg)
	plan := newScrapePlan(cat, s.w, instanceNames(cfg.Instances))
	steps := int(cfg.Duration / cfg.Step)
	frames := make([]*frame, pipelineDepth)
	for i := range frames {
		frames[i] = &frame{des: make([]float64, len(s.des.cells)), totals: make([]float64, len(s.w.vals))}
	}
	err := pipeline(steps+1, frames,
		func(i int, f *frame) error {
			s.des.drawn = f.drawn[:0]
			s.des.runUntil(float64(i) * s.stepSec)
			f.drawn = s.des.drawn
			s.des.gather(f.des)
			return nil
		},
		func(i int, f *frame) error {
			s.step(i, f)
			copy(f.totals, s.w.vals)
			return nil
		},
		func(i int, f *frame) error {
			at := cfg.Start.Add(time.Duration(i) * cfg.Step)
			if err := plan.append(db, f.totals, at.UnixMilli()); err != nil {
				return fmt.Errorf("fivegsim: scrape at %s: %w", at.Format(time.RFC3339), err)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return &Report{
		Steps:        steps + 1,
		Series:       db.NumSeries(),
		Samples:      db.NumSamples(),
		SimulatedUEs: s.des.nextUE,
		End:          cfg.Start.Add(time.Duration(steps) * cfg.Step),
	}, nil
}

// frame is one step in flight through Populate's stages: the DES's cells
// in des.cells order and the durations it drew, then every total the
// appender scrapes.
type frame struct {
	des    []float64
	drawn  []duration
	totals []float64
}

// simulator advances the world one scrape interval at a time: the DES
// drives the subscriber lifecycle, and seeded rate models drive every
// other counter and gauge. Every name it writes was resolved to a cell
// when it was built.
type simulator struct {
	w       *world
	des     *des
	rng     *rand.Rand // the secondary models' stream
	stepSec float64
	// counters are the plain counters not driven by the DES or the
	// traffic/gauge models, each with a stable synthetic rate.
	counters []secondaryCounter
	// procs are the procedure families outside the DES, in catalog order:
	// map order would desynchronise the RNG stream across runs.
	procs     []secondaryProc
	traffic   []trafficModel
	resources []resourceModel
	// static are the gauges neither the DES nor the resource model
	// maintains; their drift factor changes every staticPeriod steps.
	static []staticGauge
}

// secondaryCounter is the rate model of one counter not driven by the DES.
type secondaryCounter struct {
	cell int
	rate float64 // expected events per second at load 1.0
}

// secondaryProc is the rate model of one procedure family outside the DES.
type secondaryProc struct {
	p        *proc
	rate     float64 // expected procedures per second at load 1.0
	pSuccess float64
}

// trafficModel is one UPF interface and direction's byte/packet counters.
type trafficModel struct {
	ifaceShare, dirShare                         float64
	bytes, packets, dropped, errored, outOfOrder int
}

// resourceModel is one NF's platform metrics.
type resourceModel struct {
	loadShare float64 // the NF's share of load at diurnal peak
	// Gauge cells.
	cpu, memory, heap, goroutines, fds, inflight, dbConns, queue int
	// Counter cells.
	uptime, sbiErrors, dropped, logErrors int
}

// staticGauge is a gauge drifting around a fixed setpoint.
type staticGauge struct {
	name     string
	cell     int
	setpoint float64
	drift    float64 // setpoint scaled by the current period's drift
}

// staticPeriod is how many steps a static gauge's drift factor holds.
const staticPeriod = 10

func newSimulator(cat *catalog.Database, cfg Config) *simulator {
	w := newWorld(cfg)
	s := &simulator{
		w:       w,
		des:     newDES(cfg.Seed, w),
		rng:     rand.New(rand.NewSource(cfg.Seed + 1)),
		stepSec: cfg.Step.Seconds(),
	}

	// Secondary models: every procedure family outside the DES advances
	// coherently, and every other counter not produced by the traffic or
	// gauge models gets a stable synthetic rate.
	seen := make(map[string]bool) // procedure keys already modelled
	for _, key := range desProcKeys {
		seen[key] = true
	}
	for _, m := range cat.Metrics {
		if m.Procedure != "" {
			key := m.NF + "/" + m.Service + "/" + m.Procedure
			if p, known := w.procs[key]; known && !seen[key] {
				seen[key] = true
				s.procs = append(s.procs, secondaryProc{
					p:        p,
					rate:     0.1 + 4*hash01(key+"#prate"),
					pSuccess: 0.90 + 0.095*hash01(key+"#psucc"),
				})
			}
			continue
		}
		if m.Type == catalog.Counter {
			s.counters = append(s.counters, secondaryCounter{cell: w.counter(m.Name), rate: 0.2 + 8*hash01(m.Name+"#rate")})
		}
	}

	for _, iface := range []string{"n3", "n6", "n9"} {
		for _, dir := range []string{"ul", "dl"} {
			dirShare := 0.35
			if dir == "dl" {
				dirShare = 0.65
			}
			base := "upfgtp_" + iface + "_" + dir + "_"
			s.traffic = append(s.traffic, trafficModel{
				ifaceShare: 0.2 + 0.8*hash01("traffic#"+iface),
				dirShare:   dirShare,
				bytes:      w.counter(base + "bytes"),
				packets:    w.counter(base + "packets"),
				dropped:    w.counter(base + "dropped_packets"),
				errored:    w.counter(base + "errored_packets"),
				outOfOrder: w.counter(base + "out_of_order_packets"),
			})
		}
	}
	for _, nf := range catalog.NFNames() {
		sys := nf + "_system_"
		s.resources = append(s.resources, resourceModel{
			loadShare:  0.5 + 0.5*hash01(nf+"#load"),
			cpu:        w.gauge(sys + "cpu_usage_percent"),
			memory:     w.gauge(sys + "memory_bytes"),
			heap:       w.gauge(sys + "heap_bytes"),
			goroutines: w.gauge(sys + "goroutines"),
			fds:        w.gauge(sys + "open_fds"),
			inflight:   w.gauge(sys + "sbi_inflight_requests"),
			dbConns:    w.gauge(sys + "db_connections"),
			queue:      w.gauge(sys + "queue_depth"),
			uptime:     w.counter(sys + "uptime_seconds"),
			sbiErrors:  w.counter(sys + "sbi_request_errors"),
			dropped:    w.counter(sys + "dropped_events"),
			logErrors:  w.counter(sys + "log_errors"),
		})
	}
	s.static = staticGaugeSetpoints(w)

	// Seed the event queue.
	s.des.schedule(0, evUEArrival, nil)
	return s
}

// step advances the world to step i's scrape instant, given the DES's
// part of it in f: it copies the DES's cells in and records its durations,
// then runs the rate models.
func (s *simulator) step(i int, f *frame) {
	w := s.w
	for k, c := range s.des.cells {
		w.vals[c] = f.des[k]
	}
	for _, d := range f.drawn {
		w.observeDuration(d.p, d.z)
	}
	simT := float64(i) * s.stepSec
	mod := diurnal(simT)

	// Advance secondary plain counters.
	for _, c := range s.counters {
		n := poisson(s.rng, c.rate*s.stepSec*mod)
		w.vals[c.cell] += float64(n)
	}
	// Advance secondary procedure families coherently
	// (attempt ≥ success + failure + timeout + reject + abort).
	for _, sp := range s.procs {
		advanceSecondaryProcedure(w, s.rng, sp, s.stepSec*mod)
	}
	// Traffic counters follow active sessions.
	s.advanceTraffic(simT)
	// Resource gauges and static gauges drift around setpoints.
	s.advanceResourceGauges(simT, mod)
	if i%staticPeriod == 0 {
		period := strconv.Itoa(i / staticPeriod)
		for j := range s.static {
			g := &s.static[j]
			g.drift = g.setpoint * (0.85 + 0.3*hash01(g.name+period))
		}
	}
	for _, g := range s.static {
		w.vals[g.cell] = g.drift * mod
	}
}

// advanceSecondaryProcedure draws one step of coherent lifecycle counters
// for a procedure outside the DES.
func advanceSecondaryProcedure(w *world, rng *rand.Rand, sp secondaryProc, effSec float64) {
	n := poisson(rng, sp.rate*effSec)
	if n == 0 {
		return
	}
	p := sp.p
	succ := 0
	for j := 0; j < n; j++ {
		if rng.Float64() < sp.pSuccess {
			succ++
		}
	}
	fail := n - succ
	w.vals[p.attempt] += float64(n)
	w.vals[p.request] += float64(n)
	w.vals[p.success] += float64(succ)
	// Split the unhappy path.
	var failures, timeouts, rejects, aborts int
	for j := 0; j < fail; j++ {
		switch r := rng.Float64(); {
		case r < 0.45:
			failures++
			w.bumpFailureCause(p, rng)
		case r < 0.70:
			timeouts++
		case r < 0.90:
			rejects++
			w.bumpRejectCause(p, rng)
		default:
			aborts++
		}
	}
	w.vals[p.failure] += float64(failures)
	w.vals[p.timeout] += float64(timeouts)
	w.vals[p.retransmission] += float64(timeouts)
	w.vals[p.reject] += float64(rejects)
	w.vals[p.abort] += float64(aborts)
	for j := 0; j < n; j++ {
		w.observeDuration(p, rng.NormFloat64())
	}
}

// advanceTraffic drives the UPF per-interface byte/packet counters from
// the number of active sessions.
func (s *simulator) advanceTraffic(simT float64) {
	w := s.w
	dropFactor := w.anomalyDropFactor(simT)
	sessions := w.vals[w.upfSessions]
	if sessions < 0 {
		sessions = 0
	}
	perSessionBps := 250_000.0 // ~2 Mbit/s down+up combined across interfaces
	for _, t := range s.traffic {
		bytes := sessions * perSessionBps * t.ifaceShare * t.dirShare * s.stepSec * (0.9 + 0.2*s.rng.Float64())
		pkts := bytes / 1200
		w.vals[t.bytes] += bytes
		w.vals[t.packets] += pkts
		w.vals[t.dropped] += pkts * 0.002 * s.rng.Float64() * dropFactor
		w.vals[t.errored] += pkts * 0.0005 * s.rng.Float64()
		w.vals[t.outOfOrder] += pkts * 0.001 * s.rng.Float64()
	}
}

// advanceResourceGauges drifts per-NF platform metrics with load.
func (s *simulator) advanceResourceGauges(simT, mod float64) {
	w, rng := s.w, s.rng
	for _, r := range s.resources {
		load := mod * r.loadShare
		w.vals[r.cpu] = math.Min(98, 15+60*load+6*rng.Float64())
		w.vals[r.memory] = (1.5 + 2.5*load + 0.2*rng.Float64()) * 1e9
		w.vals[r.heap] = (0.8 + 1.5*load + 0.1*rng.Float64()) * 1e9
		w.vals[r.goroutines] = math.Round(200 + 1500*load + 50*rng.Float64())
		w.vals[r.fds] = math.Round(100 + 600*load + 20*rng.Float64())
		w.vals[r.inflight] = math.Round(5 + 80*load + 10*rng.Float64())
		w.vals[r.dbConns] = math.Round(8 + 24*load)
		w.vals[r.queue] = math.Round(30 * load * rng.Float64())
		w.vals[r.uptime] = simT
		w.vals[r.sbiErrors] += float64(poisson(rng, 0.05*mod))
		w.vals[r.dropped] += float64(poisson(rng, 0.02*mod))
		w.vals[r.logErrors] += float64(poisson(rng, 0.1*mod))
	}
}

// staticGaugeSetpoints returns the catalog gauges no other model
// maintains, with their setpoints, in catalog order. Call it after the DES
// and resource models have claimed their gauge cells: a gauge that already
// has a cell is theirs.
func staticGaugeSetpoints(w *world) []staticGauge {
	var out []staticGauge
	for _, g := range catalog.Gauges() {
		name := g.MetricName()
		if _, maintained := w.gaugeCells[name]; maintained {
			continue
		}
		out = append(out, staticGauge{name: name, cell: w.gauge(name), setpoint: math.Round(5 + 500*hash01(name+"#setpoint"))})
	}
	return out
}

// formatLE renders a bucket bound as its le label value.
func formatLE(le float64) string {
	return strconv.FormatFloat(le, 'g', -1, 64)
}

// instanceNames returns instance identifiers pod-0, pod-1, ...
func instanceNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "pod-" + strconv.Itoa(i)
	}
	return out
}

// diurnal modulates load over simulated time: a slow sinusoid plus a small
// fast ripple, always positive.
func diurnal(simSec float64) float64 {
	slow := 1 + 0.25*math.Sin(2*math.Pi*simSec/7200)
	fast := 1 + 0.05*math.Sin(2*math.Pi*simSec/600)
	return slow * fast
}

// poisson draws a Poisson variate (Knuth for small λ, normal approximation
// for large λ).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		v := lambda + math.Sqrt(lambda)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(math.Round(v))
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
