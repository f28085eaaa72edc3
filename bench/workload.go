package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"time"

	"dio/internal/benchmark"
	"dio/internal/catalog"
	"dio/internal/ingest"
	"dio/internal/tsdb"
)

// Workload names, in the order a full run executes them.
var workloadNames = []string{"ask_cold", "ask_warm", "dashboard", "write_read"}

// The simulated operator trace every default-flag dio-server holds.
var (
	traceStart = time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC)
	traceEnd   = traceStart.Add(2 * time.Hour)
)

const (
	// coldQuestions is the ask_cold cycle length. It exceeds the 512-entry
	// retrieval LRU, so cycling in fixed order misses on every request.
	coldQuestions = 1024
	// warmQuestions is the ask_warm key space; it fits the 4096-entry answer
	// cache, so after one pass every request is a hit.
	warmQuestions = 256
	// rangeSteps is the resolution of every query_range the benchmark sends.
	rangeSteps = 200

	// A push is scrape-shaped: every series once, one sample each.
	pushInstances   = 40
	pushUEs         = 50
	pushSeries      = pushInstances * pushUEs
	writtenMetric   = "bench_dl_bytes_total"
	readerThink     = 50 * time.Millisecond
	readerWindow    = 10 * time.Minute
	writtenQuery    = "sum by (instance) (rate(" + writtenMetric + "[1m]))"
	sealedQuery     = "sum by (instance) (rate(amfcc_initial_registration_attempt[5m]))"
	contentTypeJSON = "application/json"
)

// dashboardQueries are the four BENCH_5/8/9 queries, kept for continuity
// with the unexplained 0.93 ms to 1.51 ms drift, and the paper's ratio and
// top-k shapes.
var dashboardQueries = []string{
	"smfsm_pdu_sessions_active",
	sealedQuery,
	"sum(rate(amfmm_paging_attempt[5m]))",
	"upfgtp_tunnels_active",
	"100 * sum(amfcc_initial_registration_success) / sum(amfcc_initial_registration_attempt)",
	"topk(5, sum by (instance) (rate(amfcc_initial_registration_attempt[5m])))",
}

// opKind says how a response is validated.
type opKind int

const (
	opAsk opKind = iota
	opRange
	opPush
)

// request is one generated operation. key indexes the expectation the
// response is checked against: the question for an ask, the query for a
// query_range.
type request struct {
	kind        opKind
	method      string
	path        string // with its query string
	contentType string
	body        []byte
	key         int
	// query, start, end and step are the parameters of a query_range.
	query      string
	start, end time.Time
	step       time.Duration
	// wantSteps is the step count a query_range over the series being
	// written must return per series; 0 means the fixed expectation of key.
	wantSteps int
	// wantAppended is the sample count a push must acknowledge.
	wantAppended int
}

// opClass is one closed-loop client: a request generator and the pause
// between a response and the next request.
type opClass struct {
	name  string
	think time.Duration
	// next returns the i-th request. acked is how many pushes the server
	// has acknowledged so far; only write_read's reader looks at it.
	next func(i int, acked int64) request
}

// workload is a named traffic mix. classes[0] is the primary operation,
// whose latency the end-to-end metrics report.
type workload struct {
	name string
	// questions are the ask questions requests refer to by key; ranges the
	// query_range queries.
	questions []string
	ranges    []string
	// warm is sent once, in order, before anything is measured.
	warm    []request
	classes []opClass
	// wantCache is the X-DIO-Cache value every measured ask must carry.
	wantCache string
}

// questionsFor returns the first n distinct questions of the evaluation
// set generated from seed, in generation order.
func questionsFor(cat *catalog.Database, seed int64, n int) ([]string, error) {
	items, err := benchmark.Generate(cat, 4000, seed)
	if err != nil {
		return nil, fmt.Errorf("generating questions: %w", err)
	}
	seen := make(map[string]bool, len(items))
	var out []string
	for _, it := range items {
		if seen[it.Question] {
			continue
		}
		seen[it.Question] = true
		if out = append(out, it.Question); len(out) == n {
			return out, nil
		}
	}
	return nil, fmt.Errorf("seed %d gives %d distinct questions, need %d", seed, len(out), n)
}

func askRequest(key int, question string, nocache bool) request {
	m := map[string]any{"question": question}
	if nocache {
		m["nocache"] = true
	}
	body, err := json.Marshal(m)
	if err != nil {
		panic(err) // a map of string and bool always marshals
	}
	return request{kind: opAsk, method: "POST", path: "/api/v1/ask", contentType: contentTypeJSON, body: body, key: key}
}

func rangeRequest(key int, query string, start, end time.Time) request {
	step := end.Sub(start) / rangeSteps
	q := url.Values{
		"query": {query},
		"start": {start.Format(time.RFC3339)},
		"end":   {end.Format(time.RFC3339)},
		"step":  {strconv.FormatInt(int64(step/time.Second), 10) + "s"},
	}
	return request{kind: opRange, method: "GET", path: "/api/v1/query_range?" + q.Encode(), key: key,
		query: query, start: start, end: end, step: step}
}

// pushStamp is the timestamp of the i-th push (from 0): one second apart,
// starting one second after the simulated trace ends.
func pushStamp(i int) time.Time { return traceEnd.Add(time.Duration(i+1) * time.Second) }

// pusher generates the write_read pushes: integer counter walks over a
// fixed set of series. It is used by one goroutine.
type pusher struct {
	seed   int64
	rng    *rand.Rand
	batch  []ingest.TimeSeries
	values []float64
}

func newPusher(seed int64) *pusher {
	p := &pusher{
		seed:   seed,
		batch:  make([]ingest.TimeSeries, 0, pushSeries),
		values: make([]float64, pushSeries),
	}
	for g := 0; g < pushInstances; g++ {
		for u := 0; u < pushUEs; u++ {
			p.batch = append(p.batch, ingest.TimeSeries{
				Labels: tsdb.NewLabels(
					tsdb.Label{Name: tsdb.MetricNameLabel, Value: writtenMetric},
					tsdb.Label{Name: "job", Value: "bench"},
					tsdb.Label{Name: "instance", Value: fmt.Sprintf("gnb-%02d", g)},
					tsdb.Label{Name: "ue", Value: fmt.Sprintf("ue-%04d", g*pushUEs+u)},
				),
				Samples: make([]tsdb.Sample, 1),
			})
		}
	}
	return p
}

// push returns the i-th push. Calls must be made with i = 0, 1, 2, ...;
// push 0 starts the walk over, so one workload serves a server and then
// the lab with the same sequence.
func (p *pusher) push(i int) request {
	if i == 0 {
		p.rng = rand.New(rand.NewSource(p.seed))
		clear(p.values)
	}
	t := pushStamp(i).UnixMilli()
	for s := range p.batch {
		p.values[s] += float64(p.rng.Intn(1500))
		p.batch[s].Samples[0] = tsdb.Sample{T: t, V: p.values[s]}
	}
	return request{kind: opPush, method: "POST", path: "/api/v1/write",
		contentType: ingest.ContentTypeBinary, body: ingest.EncodeBinary(p.batch), wantAppended: pushSeries}
}

// writtenRead is a query_range over the trailing readerWindow of the series
// being written, ending at the newest acknowledged push. Every step from
// the second push on has two samples in its one-minute window, so the step
// count is known exactly whatever the writer does meanwhile.
func writtenRead(acked int64) request {
	end := pushStamp(int(acked) - 1)
	start := end.Add(-readerWindow)
	r := rangeRequest(0, writtenQuery, start, end)
	step := readerWindow / rangeSteps
	first := pushStamp(1)
	for t := start; !t.After(end); t = t.Add(step) {
		if !t.Before(first) {
			r.wantSteps++
		}
	}
	return r
}

// newWorkload builds the named workload from seed.
func newWorkload(name string, cat *catalog.Database, seed int64) (*workload, error) {
	w := &workload{name: name}
	switch name {
	case "ask_cold":
		qs, err := questionsFor(cat, seed, coldQuestions)
		if err != nil {
			return nil, err
		}
		w.questions, w.wantCache = qs, "bypass"
		reqs := make([]request, len(qs))
		for i, q := range qs {
			reqs[i] = askRequest(i, q, true)
		}
		w.classes = []opClass{{name: "ask", next: func(i int, _ int64) request { return reqs[i%len(reqs)] }}}

	case "ask_warm":
		qs, err := questionsFor(cat, seed, warmQuestions)
		if err != nil {
			return nil, err
		}
		w.questions, w.wantCache = qs, "hit"
		reqs := make([]request, len(qs))
		for i, q := range qs {
			reqs[i] = askRequest(i, q, false)
		}
		w.warm = reqs
		// The rank-frequency draw is precomputed so the request sequence
		// does not depend on how fast the loop runs.
		zipf := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.1, 1, warmQuestions-1)
		order := make([]uint16, 1<<16)
		for i := range order {
			order[i] = uint16(zipf.Uint64())
		}
		w.classes = []opClass{{name: "ask", next: func(i int, _ int64) request { return reqs[order[i%len(order)]] }}}

	case "dashboard":
		w.ranges = dashboardQueries
		reqs := make([]request, len(w.ranges))
		for i, q := range w.ranges {
			reqs[i] = rangeRequest(i, q, traceStart, traceEnd)
		}
		// The seed rotates where the round-robin starts; the mix is fixed.
		off := int(uint64(seed) % uint64(len(reqs)))
		w.classes = []opClass{{name: "query_range", next: func(i int, _ int64) request { return reqs[(i+off)%len(reqs)] }}}

	case "write_read":
		w.ranges = []string{writtenQuery, sealedQuery}
		p := newPusher(seed)
		sealed := rangeRequest(1, sealedQuery, traceStart, traceEnd)
		w.classes = []opClass{
			{name: "push", next: func(i int, _ int64) request { return p.push(i) }},
			{name: "read", think: readerThink, next: func(i int, acked int64) request {
				if i%2 == 0 && acked >= 2 {
					return writtenRead(acked)
				}
				return sealed
			}},
		}

	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return w, nil
}

// sequenceHash identifies the request sequence a workload generates: the
// warm-up requests and the first n requests of every class, with the reader
// seeing one more acknowledged push per request.
func (w *workload) sequenceHash(n int) string {
	h := sha256.New()
	add := func(r request) {
		fmt.Fprintf(h, "%s %s %s %d\n", r.method, r.path, r.contentType, len(r.body))
		h.Write(r.body)
	}
	for _, r := range w.warm {
		add(r)
	}
	for _, c := range w.classes {
		for i := 0; i < n; i++ {
			add(c.next(i, int64(i)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
