package fivegsim

import (
	"math"
	"math/rand"

	"dio/internal/catalog"
)

// DurationBuckets are the histogram bucket upper bounds (seconds) used for
// every procedure-duration histogram.
var DurationBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// world is the mutable counter/gauge state of the simulation, aggregated
// across instances (the scraper splits totals into per-instance series
// with fixed shares). Every total lives in one cell of vals; names resolve
// to cells while the run is set up, never while it steps.
type world struct {
	cfg Config
	// vals holds every counter, gauge and histogram total by cell.
	vals []float64
	// counterCells and gaugeCells map full metric names to cells. A name
	// may have one of each: the scrape reads a counter row from the
	// counter cell and a gauge row from the gauge cell.
	counterCells map[string]int
	gaugeCells   map[string]int
	// procs maps "nf/service/slug" to the procedure's derived facts.
	procs map[string]*proc
	// ueGauges move on every registration and deregistration, and
	// sessionGauges on every PDU session established or released.
	ueGauges, sessionGauges []weightedCell
	// upfSessions is the active-session gauge the traffic model reads.
	upfSessions int
}

// weightedCell is a cell that moves by weight per unit of change.
type weightedCell struct {
	cell   int
	weight float64
}

// proc is one procedure's facts, derived once per run: its counter cells,
// its histogram cells and its median duration.
type proc struct {
	key string
	// median is the lognormal median duration in seconds.
	median float64
	// Lifecycle counter cells (catalog.CounterVariants).
	request, attempt, success, failure, timeout, reject, abort, retransmission int
	// failureCauses and rejectCauses are the per-cause counter cells, in
	// catalog.FailureCauses and catalog.RejectCauses order.
	failureCauses, rejectCauses []int
	// buckets is the first of len(DurationBuckets) contiguous cumulative
	// bucket cells; sum and count complete the histogram.
	buckets, sum, count int
}

func newWorld(cfg Config) *world {
	w := &world{
		cfg:          cfg,
		counterCells: make(map[string]int),
		gaugeCells:   make(map[string]int),
		procs:        make(map[string]*proc),
	}
	for _, p := range catalog.Procedures() {
		key := p.NF + "/" + p.Service + "/" + p.Slug
		pr := &proc{
			key:            key,
			median:         procMedianSeconds(key),
			request:        w.counter(p.MetricName("request")),
			attempt:        w.counter(p.MetricName("attempt")),
			success:        w.counter(p.MetricName("success")),
			failure:        w.counter(p.MetricName("failure")),
			timeout:        w.counter(p.MetricName("timeout")),
			reject:         w.counter(p.MetricName("reject")),
			abort:          w.counter(p.MetricName("abort")),
			retransmission: w.counter(p.MetricName("retransmission")),
			buckets:        w.newCells(len(DurationBuckets)),
			sum:            w.newCells(1),
			count:          w.newCells(1),
		}
		for _, c := range catalog.FailureCauses {
			pr.failureCauses = append(pr.failureCauses, w.counter(p.MetricName("failure_cause_"+c)))
		}
		for _, c := range catalog.RejectCauses {
			pr.rejectCauses = append(pr.rejectCauses, w.counter(p.MetricName("reject_cause_"+c)))
		}
		w.procs[key] = pr
	}
	for _, name := range []string{"amfcc_registered_ues", "amfcc_ue_contexts", "amfcc_connected_ues"} {
		w.ueGauges = append(w.ueGauges, weightedCell{w.gauge(name), 1})
	}
	for _, g := range []struct {
		name   string
		weight float64
	}{
		{"smfsm_pdu_sessions_active", 1}, {"smfsm_ipv4_allocated", 1},
		{"smfsm_qos_flows_active", 2}, {"smfsm_sm_contexts", 1},
		{"upfsess_sessions_active", 1}, {"upfgtp_tunnels_active", 1},
		{"upfsess_installed_pdrs", 2}, {"upfsess_installed_fars", 2},
		{"upfsess_installed_qers", 1},
	} {
		w.sessionGauges = append(w.sessionGauges, weightedCell{w.gauge(g.name), g.weight})
	}
	w.upfSessions = w.gauge("upfsess_sessions_active")
	return w
}

// fork returns a world with w's cells and its own copy of their values,
// for a model that steps on another goroutine. A fork has no names, so it
// cannot create cells: only the ones w had when it was forked exist.
func (w *world) fork() *world {
	f := *w
	f.vals = append([]float64(nil), w.vals...)
	f.counterCells, f.gaugeCells, f.procs = nil, nil, nil
	return &f
}

// newCells appends n zeroed cells and returns the index of the first.
func (w *world) newCells(n int) int {
	first := len(w.vals)
	w.vals = append(w.vals, make([]float64, n)...)
	return first
}

// counter returns the cell of the named counter, creating it on first use.
func (w *world) counter(name string) int { return w.cellOf(w.counterCells, name) }

// gauge returns the cell of the named gauge, creating it on first use.
func (w *world) gauge(name string) int { return w.cellOf(w.gaugeCells, name) }

func (w *world) cellOf(cells map[string]int, name string) int {
	c, ok := cells[name]
	if !ok {
		c = w.newCells(1)
		cells[name] = c
	}
	return c
}

// move shifts each gauge by delta times its weight.
func (w *world) move(gauges []weightedCell, delta float64) {
	for _, g := range gauges {
		w.vals[g.cell] += delta * g.weight
	}
}

// bumpFailureCause attributes one failure to a cause, weighted towards the
// first causes (congestion and resource exhaustion dominate real
// deployments).
func (w *world) bumpFailureCause(p *proc, rng *rand.Rand) {
	w.vals[p.failureCauses[weightedCauseIndex(rng, len(p.failureCauses))]]++
}

// bumpRejectCause attributes one rejection to a cause.
func (w *world) bumpRejectCause(p *proc, rng *rand.Rand) {
	w.vals[p.rejectCauses[weightedCauseIndex(rng, len(p.rejectCauses))]]++
}

// weightedCauseIndex draws an index with geometrically decaying weights.
func weightedCauseIndex(rng *rand.Rand, n int) int {
	for i := 0; i < n-1; i++ {
		if rng.Float64() < 0.4 {
			return i
		}
	}
	return n - 1
}

// observeDuration records one procedure duration, drawn as the standard
// normal z, into the histogram family. Durations are lognormal with a
// per-procedure median derived from the procedure name, so different
// procedures have stably different latency profiles.
func (w *world) observeDuration(p *proc, z float64) {
	d := p.median * math.Exp(z*0.6)
	for i, le := range DurationBuckets {
		if d <= le {
			w.vals[p.buckets+i]++
		}
	}
	w.vals[p.sum] += d
	w.vals[p.count]++
}

// procMedianSeconds derives a stable per-procedure median duration in
// [20ms, 320ms] from the procedure key.
func procMedianSeconds(procKey string) float64 {
	h := hash01(procKey + "#median")
	return 0.02 * math.Pow(2, h*4) // 0.02 .. 0.32
}

// hash01 maps a string to a stable float in [0, 1): 64-bit FNV-1a, reduced
// modulo 10^6.
func hash01(s string) float64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return float64(h%1_000_000) / 1_000_000
}

// instanceShares returns the fixed per-instance share weights of a metric,
// summing to 1. Shares differ per metric so per-instance questions (topk,
// max) have non-trivial answers.
func instanceShares(metric string, n int) []float64 {
	shares := make([]float64, n)
	var total float64
	for i := range shares {
		shares[i] = 0.5 + hash01(metric+"#inst"+string(rune('a'+i)))
		total += shares[i]
	}
	for i := range shares {
		shares[i] /= total
	}
	return shares
}
