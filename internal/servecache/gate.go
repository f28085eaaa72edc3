package servecache

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dio/internal/obs"
	"dio/internal/tenant"
)

// ErrOverloaded is returned by FairGate.Acquire when a slot did not free
// up within the queue-wait budget; HTTP handlers map it to 429.
var ErrOverloaded = errors.New("servecache: server overloaded, request shed after queue-wait timeout")

// ErrQuotaExceeded is returned when a tenant's token bucket is empty: the
// tenant, not the server, is out of budget. HTTP handlers map it to 429
// with a Retry-After derived from the bucket's refill time.
var ErrQuotaExceeded = errors.New("servecache: tenant quota exceeded")

// ShedError carries the tenant-aware shed detail: which tenant was shed,
// why, and when retrying can succeed. It matches ErrOverloaded (queue
// sheds) or ErrQuotaExceeded (bucket sheds) under errors.Is, so existing
// overload handling keeps working.
type ShedError struct {
	// Tenant is the shed tenant.
	Tenant string
	// RetryAfter is when a retry can plausibly be admitted: the token
	// bucket's time-to-next-token for quota sheds, a queue-pressure
	// estimate for overload sheds.
	RetryAfter time.Duration
	// Quota distinguishes bucket sheds (true) from queue-overload sheds.
	Quota bool
}

// Error implements error.
func (e *ShedError) Error() string {
	if e.Quota {
		return fmt.Sprintf("servecache: tenant %q quota exceeded, retry in %s", e.Tenant, e.RetryAfter.Round(time.Millisecond))
	}
	return fmt.Sprintf("servecache: server overloaded, tenant %q request shed after queue-wait timeout", e.Tenant)
}

// Is routes errors.Is to the matching sentinel.
func (e *ShedError) Is(target error) bool {
	if e.Quota {
		return target == ErrQuotaExceeded
	}
	return target == ErrOverloaded
}

// FairGate is the multi-tenant admission controller for the expensive ask
// pipeline. Arriving requests first pass their tenant's token bucket
// (sustained QPS + burst, sheds with ErrQuotaExceeded and a refill-derived
// Retry-After), then compete for one of maxInflight execution slots. When
// slots are contended, waiters queue per tenant and slots are granted by
// deficit round-robin over the queued tenants — each visited tenant's
// deficit grows by its quota weight and it dequeues that many waiters —
// so an abusive tenant's backlog cannot starve everyone else the way a
// shared FIFO queue does. Waiters shed with ErrOverloaded after queueWait.
type FairGate struct {
	mu          sync.Mutex
	maxInflight int
	queueWait   time.Duration
	inflight    int
	defQuota    tenant.Quota
	tenants     map[string]*gateTenant
	ring        []*gateTenant // tenants with queued waiters, DRR order
	now         func() time.Time

	queued   atomic.Int64
	rejected atomic.Uint64

	// obs instruments (nil without Instrument).
	rejectedC *obs.Counter
	waitHist  *obs.Histogram
	tenReqs   *obs.CounterVec   // dio_tenant_requests_total{tenant,outcome}
	tenWait   *obs.HistogramVec // dio_tenant_queue_wait_seconds{tenant}
	tenTokens *obs.GaugeVec     // dio_tenant_quota_remaining{tenant}
	labelCap  *tenant.LabelCapper
}

// gateTenant is one tenant's admission state: its token bucket, FIFO
// waiter queue and DRR deficit. All fields are guarded by the gate mutex.
type gateTenant struct {
	id      string
	quota   tenant.Quota
	tokens  float64
	last    time.Time
	waiters []*gateWaiter
	deficit float64
	inRing  bool
}

// gateWaiter is one queued request. granted/abandoned are guarded by the
// gate mutex; the grant channel is buffered so dispatch never blocks.
type gateWaiter struct {
	ch        chan struct{}
	granted   bool
	abandoned bool
}

// NewGate returns a gate admitting maxInflight concurrent executions, with
// the given queue-wait budget before shedding (0 sheds immediately when
// full). Every tenant gets an unlimited quota with weight 1 until
// SetQuota/SetDefaultQuota says otherwise — the pre-tenancy behaviour.
func NewGate(maxInflight int, queueWait time.Duration) *FairGate {
	return NewFairGate(maxInflight, queueWait)
}

// NewFairGate is NewGate under its current name.
func NewFairGate(maxInflight int, queueWait time.Duration) *FairGate {
	if maxInflight < 1 {
		maxInflight = 1
	}
	return &FairGate{
		maxInflight: maxInflight,
		queueWait:   queueWait,
		tenants:     make(map[string]*gateTenant),
		now:         time.Now,
	}
}

// SetDefaultQuota sets the quota applied to tenants without an explicit
// SetQuota. It only affects tenants first seen afterwards.
func (g *FairGate) SetDefaultQuota(q tenant.Quota) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.defQuota = q
}

// SetQuota sets one tenant's quota, resetting its bucket to full.
func (g *FairGate) SetQuota(id string, q tenant.Quota) {
	g.mu.Lock()
	defer g.mu.Unlock()
	ts := g.tenantLocked(id)
	ts.quota = q
	ts.tokens = q.NormBurst()
	ts.last = g.now()
}

// SetQuotas applies a parsed -tenant-quotas map: the "*" entry becomes the
// default quota, the rest per-tenant quotas.
func (g *FairGate) SetQuotas(m map[string]tenant.Quota) {
	for id, q := range m {
		if id == "*" {
			g.SetDefaultQuota(q)
			continue
		}
		g.SetQuota(id, q)
	}
}

// Instrument registers the gate's queue/inflight gauges, wait histogram,
// shed counter, and the per-tenant dio_tenant_* instruments on the
// registry. Tenant label cardinality is capped: after 64 distinct tenants
// the rest collapse into the "other" label.
func (g *FairGate) Instrument(reg *obs.Registry) {
	reg.GaugeFunc("dio_gate_queue_depth",
		"Requests currently waiting for an admission slot.", "",
		func() float64 { return float64(g.queued.Load()) })
	reg.GaugeFunc("dio_gate_inflight",
		"Requests currently holding an admission slot.", "",
		func() float64 {
			g.mu.Lock()
			defer g.mu.Unlock()
			return float64(g.inflight)
		})
	g.rejectedC = reg.Counter("dio_gate_rejected_total",
		"Requests shed with 429 after the queue-wait timeout or an empty tenant token bucket.", "")
	g.waitHist = reg.Histogram("dio_gate_wait_seconds",
		"Time spent queued before admission.", "seconds", obs.DefBuckets())
	g.tenReqs = reg.CounterVec("dio_tenant_requests_total",
		"Admission requests, by tenant and outcome (admitted, shed_quota, shed_queue).", "", "tenant", "outcome")
	g.tenWait = reg.HistogramVec("dio_tenant_queue_wait_seconds",
		"Per-tenant time spent queued before admission.", "seconds", obs.DefBuckets(), "tenant")
	g.tenTokens = reg.GaugeVec("dio_tenant_quota_remaining",
		"Tokens left in a tenant's admission bucket (-1 for unlimited quotas).", "", "tenant")
	g.labelCap = tenant.NewLabelCapper(64)
}

// tenantLocked returns (creating if needed) the tenant state. Callers hold
// the gate mutex.
func (g *FairGate) tenantLocked(id string) *gateTenant {
	ts, ok := g.tenants[id]
	if !ok {
		ts = &gateTenant{id: id, quota: g.defQuota, last: g.now()}
		ts.tokens = ts.quota.NormBurst()
		g.tenants[id] = ts
	}
	return ts
}

// refillLocked advances the tenant's token bucket to now.
func (g *FairGate) refillLocked(ts *gateTenant) {
	if ts.quota.Unlimited() {
		return
	}
	now := g.now()
	if elapsed := now.Sub(ts.last); elapsed > 0 {
		ts.tokens = math.Min(ts.quota.NormBurst(), ts.tokens+elapsed.Seconds()*ts.quota.Rate)
	}
	ts.last = now
}

// refillAfterLocked returns how long until the tenant's bucket holds one
// token again (0 for unlimited quotas).
func (g *FairGate) refillAfterLocked(ts *gateTenant) time.Duration {
	if ts.quota.Unlimited() || ts.tokens >= 1 {
		return 0
	}
	return time.Duration((1 - ts.tokens) / ts.quota.Rate * float64(time.Second))
}

// Acquire blocks until an execution slot is free, the tenant quota or
// queue-wait budget runs out (a ShedError matching ErrQuotaExceeded /
// ErrOverloaded), or ctx is cancelled. The tenant is taken from ctx
// (tenant.Default when absent). On success it returns the release
// function that must be called when the execution finishes.
func (g *FairGate) Acquire(ctx context.Context) (release func(), err error) {
	tid := tenant.From(ctx)
	start := time.Now()

	g.mu.Lock()
	ts := g.tenantLocked(tid)
	g.refillLocked(ts)
	if !ts.quota.Unlimited() {
		if ts.tokens < 1 {
			retry := g.refillAfterLocked(ts)
			g.exportTokensLocked(ts)
			g.mu.Unlock()
			g.shedMetrics(tid, "shed_quota")
			return nil, &ShedError{Tenant: tid, RetryAfter: retry, Quota: true}
		}
		ts.tokens--
	}
	g.exportTokensLocked(ts)
	// Fast path: free slot and nobody queued ahead.
	if g.inflight < g.maxInflight && len(g.ring) == 0 {
		g.inflight++
		g.mu.Unlock()
		g.observeWait(tid, start)
		return g.release, nil
	}
	w := &gateWaiter{ch: make(chan struct{}, 1)}
	ts.waiters = append(ts.waiters, w)
	if !ts.inRing {
		ts.inRing = true
		g.ring = append(g.ring, ts)
	}
	g.mu.Unlock()

	g.queued.Add(1)
	defer g.queued.Add(-1)
	timer := time.NewTimer(g.queueWait)
	defer timer.Stop()
	select {
	case <-w.ch:
		g.observeWait(tid, start)
		return g.release, nil
	case <-timer.C:
		if g.abandon(ts, w) {
			// The grant raced the timeout: the slot is ours, use it.
			g.observeWait(tid, start)
			return g.release, nil
		}
		retry := g.shedRetry(ts)
		g.shedMetrics(tid, "shed_queue")
		return nil, &ShedError{Tenant: tid, RetryAfter: retry}
	case <-ctx.Done():
		if g.abandon(ts, w) {
			g.release()
			return nil, ctx.Err()
		}
		return nil, ctx.Err()
	}
}

// abandon marks a timed-out/cancelled waiter so dispatch skips it, and
// refunds the consumed token (the request did no work). It reports whether
// a grant raced the abandonment — the caller then owns a slot.
func (g *FairGate) abandon(ts *gateTenant, w *gateWaiter) (granted bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if w.granted {
		return true
	}
	w.abandoned = true
	if !ts.quota.Unlimited() {
		g.refillLocked(ts)
		ts.tokens = math.Min(ts.quota.NormBurst(), ts.tokens+1)
		g.exportTokensLocked(ts)
	}
	return false
}

// shedRetry estimates when a retry after a queue shed can succeed: one
// queue-wait from now per full queue "generation" ahead, floored at the
// tenant bucket's refill time.
func (g *FairGate) shedRetry(ts *gateTenant) time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	retry := g.queueWait
	if retry <= 0 {
		retry = time.Second
	}
	if r := g.refillAfterLocked(ts); r > retry {
		retry = r
	}
	return retry
}

// release frees a slot and hands it to the next waiter by DRR.
func (g *FairGate) release() {
	g.mu.Lock()
	g.inflight--
	g.dispatchLocked()
	g.mu.Unlock()
}

// dispatchLocked grants free slots to queued tenants by deficit
// round-robin: the head tenant's deficit grows by its quota weight, it
// dequeues up to that many waiters, then rotates to the back of the ring.
// Abandoned waiters are discarded. Callers hold the gate mutex.
func (g *FairGate) dispatchLocked() {
	for g.inflight < g.maxInflight && len(g.ring) > 0 {
		ts := g.ring[0]
		g.dropAbandonedLocked(ts)
		if len(ts.waiters) == 0 {
			ts.inRing = false
			ts.deficit = 0
			g.ring = g.ring[1:]
			continue
		}
		if ts.deficit < 1 {
			ts.deficit += float64(ts.quota.NormWeight())
		}
		for ts.deficit >= 1 && g.inflight < g.maxInflight {
			g.dropAbandonedLocked(ts)
			if len(ts.waiters) == 0 {
				break
			}
			w := ts.waiters[0]
			ts.waiters = ts.waiters[1:]
			ts.deficit--
			g.inflight++
			w.granted = true
			w.ch <- struct{}{}
		}
		switch {
		case len(ts.waiters) == 0:
			ts.inRing = false
			ts.deficit = 0
			g.ring = g.ring[1:]
		case ts.deficit < 1:
			// Quantum spent: the next tenant gets the next free slot.
			g.ring = append(g.ring[1:], ts)
		default:
			// Slots ran out mid-quantum: stay at the head so the next
			// release resumes this tenant's turn.
		}
	}
}

// dropAbandonedLocked discards timed-out waiters at the queue head.
func (g *FairGate) dropAbandonedLocked(ts *gateTenant) {
	for len(ts.waiters) > 0 && ts.waiters[0].abandoned {
		ts.waiters = ts.waiters[1:]
	}
}

func (g *FairGate) exportTokensLocked(ts *gateTenant) {
	if g.tenTokens == nil {
		return
	}
	v := -1.0
	if !ts.quota.Unlimited() {
		v = ts.tokens
	}
	g.tenTokens.With(g.labelCap.Label(ts.id)).Set(v)
}

func (g *FairGate) observeWait(tid string, start time.Time) {
	wait := time.Since(start).Seconds()
	if g.waitHist != nil {
		g.waitHist.Observe(wait)
	}
	if g.tenReqs != nil {
		lbl := g.labelCap.Label(tid)
		g.tenReqs.With(lbl, "admitted").Inc()
		g.tenWait.With(lbl).Observe(wait)
	}
}

func (g *FairGate) shedMetrics(tid, outcome string) {
	g.rejected.Add(1)
	if g.rejectedC != nil {
		g.rejectedC.Inc()
	}
	if g.tenReqs != nil {
		g.tenReqs.With(g.labelCap.Label(tid), outcome).Inc()
	}
}

// Rejected returns the total number of shed requests (quota and queue).
func (g *FairGate) Rejected() uint64 { return g.rejected.Load() }
