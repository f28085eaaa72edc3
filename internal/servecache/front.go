package servecache

import (
	"context"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dio/internal/obs"
	"dio/internal/tenant"
)

// FrontConfig assembles a Front.
type FrontConfig[V any] struct {
	// Size is the approximate answer-cache capacity in entries per
	// tenant's capacity share (see TenantShare).
	Size int
	// TTL is the freshness window: the TSDB head timestamp is quantized
	// into buckets of this width and folded into the cache key, so a
	// cached answer stops being addressable once the head advances past
	// its bucket. Zero disables time-based expiry (keys ignore the head).
	TTL time.Duration
	// Version returns the domain-specific database's monotonic version;
	// every expert contribution bumps it, invalidating all cached answers
	// instantly. Nil pins the version to zero.
	Version func() uint64
	// TenantVersion, when set, overrides Version per tenant: cache keys
	// fold in TenantVersion(tenant) instead, so a tenant-scoped catalog
	// contribution invalidates only that tenant's cached answers.
	TenantVersion func(tenantID string) uint64
	// TenantShare caps one tenant's resident entries. Each tenant gets
	// its own LRU of this capacity, so a busy tenant can never evict
	// another tenant's answers. Zero defaults to Size — the single-tenant
	// behaviour, where the default tenant may use the whole cache.
	TenantShare int
	// MaxTenants bounds resident tenant caches (the coldest tenant's
	// cache is dropped on overflow). Zero defaults to 1024.
	MaxTenants int
	// Head returns the newest ingested TSDB sample timestamp in Unix
	// milliseconds (0 for an empty store). Nil pins the bucket to zero.
	// With streaming remote-write ingest this advances continuously, so
	// cached answers age out one TTL bucket after the data they saw.
	Head func() int64
	// Compute runs the full pipeline for one question (a cache miss or
	// bypass). The question's tenant arrives on ctx. Required.
	Compute func(ctx context.Context, question string) (V, error)
}

// Front is the answer cache: tenant-partitioned sharded LRUs keyed by
// (tenant, normalized question, tenant catalog version, TSDB-head bucket)
// with singleflight collapsing concurrent identical misses into one
// pipeline execution. Errors are never cached. Requests without a tenant
// on the context run as tenant.Default, reproducing the pre-tenancy
// single-tenant behaviour exactly. It is safe for concurrent use.
type Front[V any] struct {
	cfg   FrontConfig[V]
	cache *TenantLRU[V]
	sf    Group[V]

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	bypasses  atomic.Uint64

	// obs instruments (nil without Instrument).
	requests *obs.CounterVec
	tenReqs  *obs.CounterVec // dio_tenant_cache_requests_total{tenant,outcome}
	labelCap *tenant.LabelCapper
	evicted  *obs.Counter
	lookup   *obs.Histogram
}

// NewFront builds the serving front. It panics without a Compute function:
// that is a wiring error, not a runtime condition.
func NewFront[V any](cfg FrontConfig[V]) *Front[V] {
	if cfg.Compute == nil {
		panic("servecache: FrontConfig.Compute is required")
	}
	if cfg.Size < 1 {
		cfg.Size = 1024
	}
	if cfg.TenantShare < 1 {
		cfg.TenantShare = cfg.Size
	}
	return &Front[V]{cfg: cfg, cache: NewTenantLRU[V](cfg.TenantShare, cfg.MaxTenants)}
}

// Instrument registers the front's hit/miss/eviction counters, lookup
// histogram, entry gauge and per-tenant outcome counters on the registry
// under cache="answer".
func (f *Front[V]) Instrument(reg *obs.Registry) {
	f.requests = reg.CounterVec("dio_cache_requests_total",
		"Serving-cache lookups, by cache layer and outcome (hit, miss, coalesced, bypass).", "", "cache", "outcome")
	f.tenReqs = reg.CounterVec("dio_tenant_cache_requests_total",
		"Answer-cache lookups, by tenant and outcome (hit, miss, coalesced, bypass).", "", "tenant", "outcome")
	f.labelCap = tenant.NewLabelCapper(64)
	f.evicted = reg.CounterVec("dio_cache_evictions_total",
		"Serving-cache entries evicted for capacity, by cache layer.", "", "cache").With("answer")
	f.lookup = reg.Histogram("dio_cache_lookup_seconds",
		"Latency of one answer-cache lookup (key build + LRU probe).", "seconds",
		obs.ExponentialBuckets(1e-7, 10, 8))
	reg.GaugeVec("dio_cache_entries",
		"Entries currently resident in a serving cache, by cache layer.", "", "cache").
		Func(func() float64 { return float64(f.cache.Len()) }, "answer")
}

// version resolves the cache-key version for a tenant.
func (f *Front[V]) version(tenantID string) uint64 {
	if f.cfg.TenantVersion != nil {
		return f.cfg.TenantVersion(tenantID)
	}
	if f.cfg.Version != nil {
		return f.cfg.Version()
	}
	return 0
}

// Key builds the versioned cache key for a tenant's question: tenant,
// normalized text, the tenant's catalog version, and the TTL-quantized
// TSDB head bucket.
func (f *Front[V]) Key(tenantID, question string) string {
	var bucket int64
	if f.cfg.TTL > 0 && f.cfg.Head != nil {
		if ms := f.cfg.TTL.Milliseconds(); ms > 0 {
			bucket = f.cfg.Head() / ms
		}
	}
	// Hand-built key: this runs on every lookup, and the fmt machinery
	// plus intermediate normalization strings dominated the hit path.
	var num [20]byte
	var b strings.Builder
	b.Grow(len(tenantID) + len(question) + 24)
	b.WriteString(tenantID)
	b.WriteByte(0x1f)
	b.Write(strconv.AppendUint(num[:0], f.version(tenantID), 10))
	b.WriteByte(0x1f)
	b.Write(strconv.AppendInt(num[:0], bucket, 10))
	b.WriteByte(0x1f)
	appendNormalized(&b, question)
	return b.String()
}

// Do serves one question for the tenant on ctx: from the tenant's cache
// slice when addressable, coalesced onto an identical in-flight execution
// of the same tenant, or by running the pipeline (always, when bypass is
// set — the expert-verification path must be able to see live pipeline
// behaviour). The traced request's span gets a cache_hit attribute either
// way.
//
// Coalesced followers share the leader's result and error: if the leader's
// context is cancelled mid-pipeline, followers see that error too.
func (f *Front[V]) Do(ctx context.Context, question string, bypass bool) (V, Status, error) {
	tid := tenant.From(ctx)
	if bypass {
		f.bypasses.Add(1)
		f.count(tid, StatusBypass)
		obs.SpanFrom(ctx).SetAttr("cache_hit", false)
		v, err := f.cfg.Compute(ctx, question)
		return v, StatusBypass, err
	}
	start := time.Now()
	key := f.Key(tid, question)
	v, ok := f.cache.Get(tid, key)
	if f.lookup != nil {
		f.lookup.Observe(time.Since(start).Seconds())
	}
	if ok {
		f.hits.Add(1)
		f.count(tid, StatusHit)
		obs.SpanFrom(ctx).SetAttr("cache_hit", true)
		return v, StatusHit, nil
	}
	v, err, leader := f.sf.Do(key, func() (V, error) {
		v, err := f.cfg.Compute(ctx, question)
		if err == nil && f.cache.Put(tid, key, v) && f.evicted != nil {
			f.evicted.Inc()
		}
		return v, err
	})
	status := StatusCoalesced
	if leader {
		status = StatusMiss
		f.misses.Add(1)
	} else {
		f.coalesced.Add(1)
	}
	f.count(tid, status)
	obs.SpanFrom(ctx).SetAttr("cache_hit", status == StatusCoalesced)
	return v, status, err
}

func (f *Front[V]) count(tid string, s Status) {
	if f.requests != nil {
		f.requests.With("answer", s.String()).Inc()
	}
	if f.tenReqs != nil {
		f.tenReqs.With(f.labelCap.Label(tid), s.String()).Inc()
	}
}

// FrontStats is a point-in-time view of the front's counters.
type FrontStats struct {
	Hits, Misses, Coalesced, Bypasses, Evictions uint64
	Entries                                      int
	Tenants                                      int
}

// HitRate returns hits (direct plus coalesced) over all non-bypass
// lookups, in [0, 1]; 0 when nothing was looked up.
func (s FrontStats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(total)
}

// Purge drops every cached entry and zeroes the outcome counters
// (benchmarks separating warm-up traffic from the measured run).
func (f *Front[V]) Purge() {
	f.cache.Purge()
	f.hits.Store(0)
	f.misses.Store(0)
	f.coalesced.Store(0)
	f.bypasses.Store(0)
}

// Stats snapshots the front's counters.
func (f *Front[V]) Stats() FrontStats {
	return FrontStats{
		Hits: f.hits.Load(), Misses: f.misses.Load(),
		Coalesced: f.coalesced.Load(), Bypasses: f.bypasses.Load(),
		Evictions: f.cache.Evictions(), Entries: f.cache.Len(),
		Tenants: f.cache.Tenants(),
	}
}
