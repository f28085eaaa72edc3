package fivegsim

import (
	"sync/atomic"

	"dio/internal/catalog"
	"dio/internal/tsdb"
)

// scrapePlan is every series one scrape appends, resolved once per run:
// each row's world cell and shares, then per series, rows × instances in
// append order, its labels, its ref (0 until the first scrape resolves
// it) and the value being appended.
type scrapePlan struct {
	rows   []scrapeRow
	labels []tsdb.Labels
	refs   []tsdb.SeriesRef
	vals   []float64
}

// scrapeRow is one total split into per-instance series.
type scrapeRow struct {
	cell   int
	shares []float64 // per instance, summing to 1
}

// newScrapePlan resolves every row of cat against w, in catalog order:
// a histogram bucket metric expands to one row per bound plus +Inf (the
// count), and every other metric is one row.
func newScrapePlan(cat *catalog.Database, w *world, instances []string) *scrapePlan {
	plan := &scrapePlan{}
	hist := func(m *catalog.Metric) *proc {
		if p, ok := w.procs[m.NF+"/"+m.Service+"/"+m.Procedure]; ok {
			return p
		}
		// A procedure the simulator does not know reads zero.
		return &proc{buckets: w.newCells(len(DurationBuckets)), sum: w.newCells(1), count: w.newCells(1)}
	}
	for _, m := range cat.Metrics {
		exported := m.Name
		if w.cfg.RenameMetric != nil {
			exported = w.cfg.RenameMetric(m.Name)
		}
		shares := instanceShares(m.Name, len(instances))
		add := func(cell int, le string) {
			plan.rows = append(plan.rows, scrapeRow{cell: cell, shares: shares})
			// One array holds the row's label sets, each already in name
			// order; a non-bucket row has no le label.
			arr := make([]tsdb.Label, 0, 3*len(instances))
			for _, inst := range instances {
				from := len(arr)
				arr = append(arr, tsdb.Label{Name: tsdb.MetricNameLabel, Value: exported}, tsdb.Label{Name: "instance", Value: inst})
				if le != "" {
					arr = append(arr, tsdb.Label{Name: "le", Value: le})
				}
				plan.labels = append(plan.labels, arr[from:len(arr):len(arr)])
			}
		}
		switch m.Type {
		case catalog.HistogramBucket:
			h := hist(m)
			for bi, le := range DurationBuckets {
				add(h.buckets+bi, formatLE(le))
			}
			add(h.count, "+Inf")
		case catalog.HistogramSum:
			add(hist(m).sum, "")
		case catalog.HistogramCount:
			add(hist(m).count, "")
		case catalog.Gauge:
			add(w.gauge(m.Name), "")
		default: // Counter
			add(w.counter(m.Name), "")
		}
	}
	plan.refs = make([]tsdb.SeriesRef, len(plan.labels))
	plan.vals = make([]float64, len(plan.labels))
	return plan
}

// append writes one scrape of the totals at timestamp ts, under one store
// lock. The first scrape resolves every series' ref; later ones append by
// ref alone.
func (p *scrapePlan) append(db *tsdb.DB, totals []float64, ts int64) error {
	j := 0
	for _, r := range p.rows {
		total := totals[r.cell]
		for _, share := range r.shares {
			v := total * share
			if v < 0 {
				v = 0
			}
			p.vals[j] = v
			j++
		}
	}
	return db.AppendScrape(p.refs, p.labels, ts, p.vals)
}

// pipelineBuffers is how many snapshots are in flight at once: one being
// filled, one being appended and one queued between them.
const pipelineBuffers = 3

// pipeline runs produce for steps 0..n-1 on the calling goroutine and
// consume on a single other goroutine, in step order, so consume of step i
// overlaps produce of step i+1. Each step's snapshot is a width-long
// buffer from a pool of pipelineBuffers; produce fills it and consume
// reads it. The first consume error stops production (no later step is
// consumed) and is returned after the consumer's last step.
func pipeline(n, width int, produce func(i int, snap []float64), consume func(i int, snap []float64) error) error {
	type step struct {
		i    int
		snap []float64
	}
	// Each channel can hold every buffer at once, so no send blocks.
	free := make(chan []float64, pipelineBuffers)
	for range pipelineBuffers {
		free <- make([]float64, width)
	}
	full := make(chan step, pipelineBuffers)
	var failed atomic.Bool
	done := make(chan error, 1)
	go func() {
		var err error
		for s := range full {
			if err == nil {
				err = consume(s.i, s.snap)
				failed.Store(err != nil)
			}
			free <- s.snap
		}
		done <- err
	}()

	for i := 0; i < n; i++ {
		snap := <-free
		if failed.Load() {
			break
		}
		produce(i, snap)
		full <- step{i, snap}
	}
	close(full)
	return <-done
}
