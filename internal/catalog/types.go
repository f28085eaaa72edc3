// Package catalog implements the domain-specific database of the paper
// (§3.1): the corpus of specialized operator metrics — names, detailed
// documentation and bespoke function definitions — produced by a virtual
// network function provider for a 5G core. The vendor documentation is
// proprietary, so this package *generates* a synthetic yet representative
// catalog of the same shape: >3000 counters, gauges and histograms across
// AMF, SMF, NRF, N3IWF, NSSF and UPF, each with a documentation sentence
// modelled on the paper's example ("The number of authentication requests
// sent by AMF. The AUTHENTICATION REQUEST message is defined in section
// 8.2.1 of 3GPP TS 24.501. 64-bit counter.").
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType classifies how a metric's samples behave.
type MetricType int

// Metric types.
const (
	Counter MetricType = iota
	Gauge
	HistogramBucket
	HistogramSum
	HistogramCount
)

// String names the metric type as it appears in documentation.
func (t MetricType) String() string {
	switch t {
	case Counter:
		return "64-bit counter"
	case Gauge:
		return "gauge"
	case HistogramBucket:
		return "cumulative histogram bucket counter"
	case HistogramSum:
		return "histogram sum counter"
	case HistogramCount:
		return "histogram count counter"
	}
	return "unknown"
}

// Metric is one catalog entry: a metric the vNF provider exports, with its
// full documentation text.
type Metric struct {
	// Name is the exported metric name, e.g. "amfcc_n1_auth_request".
	Name string
	// NF is the network function that produces it: amf, smf, nrf, n3iwf,
	// nssf or upf.
	NF string
	// Service is the NF-internal service, e.g. "cc" (call control).
	Service string
	// Procedure is the slug of the 3GPP procedure the metric belongs to
	// ("" for gauges and resource metrics not tied to a procedure).
	Procedure string
	// Variant distinguishes the counters of one procedure: request,
	// attempt, success, failure, timeout, ... or a failure/reject cause.
	Variant string
	// Type is the sample behaviour.
	Type MetricType
	// Unit is the measured unit ("", "bytes", "packets", "seconds", ...).
	Unit string
	// Description is the full vendor documentation sentence(s).
	Description string
	// Labels are the label dimensions the metric is exported with
	// (instance is implicit on everything).
	Labels []string
	// Expert attributes entries contributed through the feedback loop
	// (empty for vendor-shipped documentation).
	Expert string
}

// Doc returns the documentation text sample for the metric as segmented
// into the domain-specific database: name plus description.
func (m *Metric) Doc() string {
	return m.Name + ": " + m.Description
}

// FunctionDef is a bespoke, specialist-crafted function stored in the
// domain-specific database (§3.1): a named PromQL recipe with a
// description of inputs and outputs.
type FunctionDef struct {
	// Name identifies the function, e.g. "procedure_success_rate".
	Name string
	// Description explains what the function computes.
	Description string
	// Inputs documents the expected arguments.
	Inputs string
	// Outputs documents the produced value.
	Outputs string
	// Template is the executable PromQL with %s placeholders for the
	// input metric names.
	Template string
	// Arity is the number of metric-name arguments Template expects.
	Arity int
	// Author is the contributing expert (attribution, §3.4).
	Author string
}

// Doc returns the documentation text sample for the function.
func (f *FunctionDef) Doc() string {
	return "function " + f.Name + ": " + f.Description + " Inputs: " + f.Inputs + " Outputs: " + f.Outputs
}

// Expand instantiates the function template with metric names.
func (f *FunctionDef) Expand(metrics ...string) (string, error) {
	if len(metrics) != f.Arity {
		return "", fmt.Errorf("catalog: function %s expects %d metrics, got %d", f.Name, f.Arity, len(metrics))
	}
	args := make([]any, len(metrics))
	for i, m := range metrics {
		args[i] = m
	}
	return fmt.Sprintf(f.Template, args...), nil
}

// Document is one text sample of the domain-specific database: the unit of
// embedding and retrieval.
type Document struct {
	// ID is the metric name or "function:<name>".
	ID string
	// Text is the embedded content.
	Text string
	// Metric points back to the catalog entry (nil for function docs).
	Metric *Metric
	// Function points back to the function definition (nil for metrics).
	Function *FunctionDef
}

// Database is the assembled domain-specific database. Construction-time
// code (generators, vendor translators, simulators) may read the exported
// slices directly; once the database serves live traffic alongside the
// feedback loop, concurrent access must go through the methods, which
// synchronise with runtime contributions. Published *Metric values are
// immutable: contributions replace entries copy-on-write, so a reader
// holding a pointer never observes a mutation.
type Database struct {
	Metrics   []*Metric
	Functions []*FunctionDef

	mu       sync.RWMutex
	byName   map[string]*Metric
	funcByID map[string]*FunctionDef

	// overlays holds per-tenant deltas over the shared base corpus (see
	// tenant.go). Lazily created; nil until the first tenant contribution.
	// noverlays mirrors len(overlays) so TenantVersion's hot path can
	// skip the mutex while no overlays exist.
	overlays  map[string]*tenantOverlay
	noverlays atomic.Uint64

	// version counts contributions. Serving-layer cache keys fold it in,
	// so every expert contribution invalidates cached answers instantly.
	version atomic.Uint64
}

// NewDatabase assembles a database from metrics and functions.
func NewDatabase(metrics []*Metric, functions []*FunctionDef) *Database {
	db := &Database{
		Metrics:   metrics,
		Functions: functions,
		byName:    make(map[string]*Metric, len(metrics)),
		funcByID:  make(map[string]*FunctionDef, len(functions)),
	}
	for _, m := range metrics {
		db.byName[m.Name] = m
	}
	for _, f := range functions {
		db.funcByID[f.Name] = f
	}
	return db
}

// Version returns the monotonic contribution counter. Serving-layer
// caches key on it: any expert contribution bumps it, making every cached
// answer derived from the old database unaddressable.
func (db *Database) Version() uint64 { return db.version.Load() }

// Lookup returns the metric with the given name.
func (db *Database) Lookup(name string) (*Metric, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	m, ok := db.byName[name]
	return m, ok
}

// LookupFunction returns the bespoke function with the given name.
func (db *Database) LookupFunction(name string) (*FunctionDef, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	f, ok := db.funcByID[name]
	return f, ok
}

// MetricNames returns all metric names, sorted.
func (db *Database) MetricNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.Metrics))
	for _, m := range db.Metrics {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// MetricsSnapshot returns the current metric entries. The returned slice
// is the caller's; the pointed-to metrics are immutable.
func (db *Database) MetricsSnapshot() []*Metric {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]*Metric(nil), db.Metrics...)
}

// FunctionsSnapshot returns the current bespoke function definitions.
func (db *Database) FunctionsSnapshot() []*FunctionDef {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]*FunctionDef(nil), db.Functions...)
}

// Documents segments the database into text samples: one per metric plus
// one per bespoke function, the corpus the context extractor indexes.
func (db *Database) Documents() []Document {
	db.mu.RLock()
	defer db.mu.RUnlock()
	docs := make([]Document, 0, len(db.Metrics)+len(db.Functions))
	for _, m := range db.Metrics {
		docs = append(docs, Document{ID: m.Name, Text: m.Doc(), Metric: m})
	}
	for _, f := range db.Functions {
		docs = append(docs, Document{ID: "function:" + f.Name, Text: f.Doc(), Function: f})
	}
	return docs
}

// AddExpertMetricDoc appends (or overrides) expert-contributed
// documentation for a metric, attributed to the expert (the feedback loop
// of §3.4 grows the database through this). Existing entries are replaced
// copy-on-write, so concurrent readers holding the old *Metric keep a
// consistent view; the database version is bumped either way.
func (db *Database) AddExpertMetricDoc(name, description, expert string) *Metric {
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.version.Add(1)
	if old, ok := db.byName[name]; ok {
		// Expert notes lead the description: they carry the operator
		// jargon that vendor text lacks, and retrieval and prompt
		// clipping both weight the leading sentence.
		m := new(Metric)
		*m = *old
		m.Description = description + " (Expert note by " + expert + ".) " + old.Description
		m.Expert = expert
		db.replaceLocked(old, m)
		return m
	}
	m := &Metric{Name: name, Description: description, Expert: expert, Type: Counter}
	db.Metrics = append(db.Metrics, m)
	db.byName[name] = m
	return m
}

// replaceLocked swaps old for m in every index. Callers must hold the
// write lock.
func (db *Database) replaceLocked(old, m *Metric) {
	db.byName[m.Name] = m
	for i, em := range db.Metrics {
		if em == old {
			db.Metrics[i] = m
			break
		}
	}
}

// AddFunction registers a bespoke function contributed at runtime (the
// feedback loop), keeping the lookup index consistent and bumping the
// database version.
func (db *Database) AddFunction(f *FunctionDef) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.Functions = append(db.Functions, f)
	db.funcByID[f.Name] = f
	db.version.Add(1)
}

// NFLongNames maps NF short names to their full 3GPP names (used in
// documentation sentences and by the lexicon).
var NFLongNames = map[string]string{
	"amf":   "Access and Mobility Management Function",
	"smf":   "Session Management Function",
	"nrf":   "NF Repository Function",
	"n3iwf": "Non-3GPP Inter-Working Function",
	"nssf":  "Network Slice Selection Function",
	"upf":   "User Plane Function",
}

// NFNames returns the NF short names in canonical order.
func NFNames() []string { return []string{"amf", "smf", "nrf", "n3iwf", "nssf", "upf"} }

// Stats summarises the catalog for the §4 setup checks.
type Stats struct {
	Metrics    int
	Counters   int
	Gauges     int
	Histograms int
	Functions  int
	PerNF      map[string]int
}

// Stats computes catalog statistics.
func (db *Database) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := Stats{PerNF: make(map[string]int), Functions: len(db.Functions)}
	for _, m := range db.Metrics {
		s.Metrics++
		s.PerNF[m.NF]++
		switch m.Type {
		case Counter:
			s.Counters++
		case Gauge:
			s.Gauges++
		default:
			s.Histograms++
		}
	}
	return s
}

// String renders the stats as one line.
func (s Stats) String() string {
	nfs := make([]string, 0, len(s.PerNF))
	for nf := range s.PerNF {
		nfs = append(nfs, nf)
	}
	sort.Strings(nfs)
	parts := make([]string, 0, len(nfs))
	for _, nf := range nfs {
		parts = append(parts, fmt.Sprintf("%s=%d", nf, s.PerNF[nf]))
	}
	return fmt.Sprintf("%d metrics (%d counters, %d gauges, %d histogram series), %d functions [%s]",
		s.Metrics, s.Counters, s.Gauges, s.Histograms, s.Functions, strings.Join(parts, " "))
}
