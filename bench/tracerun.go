package main

import (
	"context"
	"fmt"
	"time"

	"dio/internal/servecache"
)

// tracedRun is what serving a workload inside the lab recorded.
type tracedRun struct {
	spans []span
	// primary holds the root spans of the workload's primary operation.
	primary  []int
	requests int
	// front and retrieval are cache outcomes over the traced requests.
	front                      servecache.FrontStats
	retrievalHit, retrievalAll float64
}

// retrievalLookups reads the retrieval-cache outcome counters.
func retrievalLookups(e exposition) (hit, all float64) {
	hit = e.sum("dio_cache_requests_total", `cache="retrieval"`, `outcome="hit"`)
	return hit, hit + e.sum("dio_cache_requests_total", `cache="retrieval"`, `outcome="miss"`)
}

// tracedRequests bounds the recorded requests of one traced run, and with
// them the span file; only ask_warm is fast enough to reach it.
const tracedRequests = 4000

// traced replays w's request sequence through Server.ServeHTTP on one
// goroutine: a tenth of budget unrecorded, to fill caches as the measured
// server's warm-up does, then recorded until budget is spent or
// tracedRequests are in. After each recorded request it replays the layers
// that have no seam. Every class starts at its request 0: the lab has seen
// none of the pushes.
func (l *lab) traced(ctx context.Context, w *workload, e *expectations, budget time.Duration) (*tracedRun, error) {
	serveOne := func(r request, wantCache string) (int, error) {
		if r.kind == opPush {
			if err := l.alignPush(); err != nil {
				return -1, err
			}
		}
		rr, root := l.serve(r)
		if err := check(e, r, rr.Code, rr.Header().Get(cacheHeader), wantCache, rr.Body.Bytes()); err != nil {
			return -1, fmt.Errorf("traced run: %w", err)
		}
		return root, l.replayLayers(ctx, r, root)
	}
	for _, r := range w.warm {
		if _, err := serveOne(r, ""); err != nil {
			return nil, err
		}
	}

	next := make([]int, len(w.classes))
	var acked int64
	t := &tracedRun{}
	started := time.Now()
	var front0 servecache.FrontStats
	var hit0, all0 float64
	for round := 0; ; round++ {
		elapsed := time.Since(started)
		if elapsed >= budget && t.requests > 0 || t.requests >= tracedRequests {
			break
		}
		if !l.rec.enabled() && elapsed >= budget/10 {
			reg, err := l.registry()
			if err != nil {
				return nil, err
			}
			front0 = l.front.Stats()
			hit0, all0 = retrievalLookups(reg)
			l.rec.setOn(true)
		}
		// One request of every class per round, the primary first.
		for c, class := range w.classes {
			r := class.next(next[c], acked)
			next[c]++
			root, err := serveOne(r, w.wantCache)
			if err != nil {
				return nil, err
			}
			if r.kind == opPush {
				acked++
			}
			if root >= 0 {
				t.requests++
				if c == 0 {
					t.primary = append(t.primary, root)
				}
			}
		}
	}
	l.rec.setOn(false)

	reg, err := l.registry()
	if err != nil {
		return nil, err
	}
	t.spans = l.rec.spans
	f := l.front.Stats()
	t.front = servecache.FrontStats{Hits: f.Hits - front0.Hits, Misses: f.Misses - front0.Misses,
		Coalesced: f.Coalesced - front0.Coalesced}
	hit1, all1 := retrievalLookups(reg)
	t.retrievalHit, t.retrievalAll = hit1-hit0, all1-all0
	return t, nil
}
