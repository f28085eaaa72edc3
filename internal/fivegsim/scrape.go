package fivegsim

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"

	"dio/internal/catalog"
	"dio/internal/tsdb"
)

// scrapePlan is every series one scrape appends, resolved once per run,
// in label-key order: per series, the world cell it splits and its
// instance's share of it, its labels, its ref (0 until the first scrape
// resolves it) and the value being appended.
type scrapePlan struct {
	cells  []int
	shares []float64
	labels []tsdb.Labels
	refs   []tsdb.SeriesRef
	vals   []float64
}

// newScrapePlan resolves every row of cat against w, a series per
// instance: a histogram bucket metric expands to one row per bound plus
// +Inf (the count), and every other metric is one row.
func newScrapePlan(cat *catalog.Database, w *world, instances []string) *scrapePlan {
	var rows []scrapeSeries
	var keys []byte // every series' label key, back to back
	hist := func(m *catalog.Metric) *proc {
		if p, ok := w.procs[m.NF+"/"+m.Service+"/"+m.Procedure]; ok {
			return p
		}
		// A procedure the simulator does not know reads zero.
		return &proc{buckets: w.newCells(len(DurationBuckets)), sum: w.newCells(1), count: w.newCells(1)}
	}
	for _, m := range cat.Metrics {
		shares := instanceShares(m.Name, len(instances))
		add := func(cell int, le string) {
			// One array holds the row's label sets, each already in name
			// order; a non-bucket row has no le label.
			arr := make([]tsdb.Label, 0, 3*len(instances))
			for i, inst := range instances {
				from := len(arr)
				arr = append(arr, tsdb.Label{Name: tsdb.MetricNameLabel, Value: m.Name}, tsdb.Label{Name: "instance", Value: inst})
				if le != "" {
					arr = append(arr, tsdb.Label{Name: "le", Value: le})
				}
				ls := tsdb.Labels(arr[from:len(arr):len(arr)])
				key := len(keys)
				keys = ls.AppendKey(keys)
				rows = append(rows, scrapeSeries{cell: cell, share: shares[i], labels: ls, key: key, keyEnd: len(keys)})
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
	// The first scrape creates every series. In key order each one lands
	// at the end of the store's sorted key and postings lists rather than
	// being inserted into their middle.
	slices.SortFunc(rows, func(a, b scrapeSeries) int {
		return bytes.Compare(keys[a.key:a.keyEnd], keys[b.key:b.keyEnd])
	})
	n := len(rows)
	plan := &scrapePlan{cells: make([]int, n), shares: make([]float64, n), labels: make([]tsdb.Labels, n), refs: make([]tsdb.SeriesRef, n), vals: make([]float64, n)}
	for j, r := range rows {
		plan.cells[j], plan.shares[j], plan.labels[j] = r.cell, r.share, r.labels
	}
	return plan
}

// scrapeSeries is one series of the plan while it is built; its label
// key is keys[key:keyEnd].
type scrapeSeries struct {
	cell        int
	share       float64
	labels      tsdb.Labels
	key, keyEnd int
}

// append writes one scrape of the totals at timestamp ts, under one store
// lock. The first scrape resolves every series' ref; later ones append by
// ref alone.
func (p *scrapePlan) append(db *tsdb.DB, totals []float64, ts int64) error {
	for j, cell := range p.cells {
		v := totals[cell] * p.shares[j]
		if v < 0 {
			v = 0
		}
		p.vals[j] = v
	}
	return db.AppendScrape(p.refs, p.labels, ts, p.vals)
}

// pipelineDepth is how many frames Populate keeps in flight: one in each
// of its three stages and one queued.
const pipelineDepth = 4

// pipeline runs steps 0..n-1 through stages, each stage on its own
// goroutine, so stage k of step i overlaps stage k-1 of step i+1. A step
// holds one of slots from its first stage to its last, so at most
// len(slots) steps are in flight; every stage sees the steps in order, and
// each slot as the stage before left it. An error at step i stops the
// pipeline there: no stage runs step i or a later one, the earlier stages
// stop within the slots in flight, and the error is returned once every
// stage has stopped.
func pipeline[S any](n int, slots []S, stages ...func(i int, slot S) error) error {
	type step struct {
		i    int
		slot S
	}
	// Each channel can hold every slot at once, so no send blocks.
	free := make(chan step, len(slots))
	for _, s := range slots {
		free <- step{slot: s}
	}
	var (
		stopAt  atomic.Int64 // the first failed step, n while none has
		mu      sync.Mutex   // guards stopping
		stopErr error
		wg      sync.WaitGroup
	)
	stopAt.Store(int64(n))
	head := make(chan step, len(slots))
	in := head
	for k, stage := range stages {
		out := free // the last stage hands the slot back
		if k < len(stages)-1 {
			out = make(chan step, len(slots))
		}
		wg.Add(1)
		go func(in <-chan step, out chan<- step) {
			defer wg.Done()
			for st := range in {
				if int64(st.i) < stopAt.Load() {
					if err := stage(st.i, st.slot); err != nil {
						mu.Lock()
						if int64(st.i) < stopAt.Load() {
							stopAt.Store(int64(st.i))
							stopErr = err
						}
						mu.Unlock()
					}
				}
				out <- st
			}
			// The last stage closes free, which nothing reads by now.
			close(out)
		}(in, out)
		in = out
	}

	for i := 0; i < n; i++ {
		st := <-free
		if int64(i) >= stopAt.Load() {
			break
		}
		st.i = i
		head <- st
	}
	close(head)
	wg.Wait()
	return stopErr
}
