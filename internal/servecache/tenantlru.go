package servecache

import (
	"sync"
	"sync/atomic"
)

// TenantLRU partitions an LRU cache by tenant: each tenant gets its own
// sharded LRU with a fixed capacity share, so one tenant's working set can
// never evict another tenant's entries. The number of resident tenant
// caches is itself bounded — when it overflows, the least recently used
// tenant's whole cache is dropped (its entries count as evictions).
type TenantLRU[V any] struct {
	mu     sync.RWMutex
	caches map[string]*tenantCache[V]
	share  int
	max    int
	clock  atomic.Uint64 // logical time for tenant recency

	evictions atomic.Uint64 // per-entry capacity evictions across dropped tenants
}

// tenantCache embeds its LRU by value: a tenant hit dereferences the map
// entry once and lands directly in the cache header and first shard.
type tenantCache[V any] struct {
	last atomic.Uint64
	lru  LRU[V]
}

// NewTenantLRU returns a tenant-partitioned cache: share entries per
// tenant (minimum 1), at most maxTenants resident tenants (0 means 1024).
func NewTenantLRU[V any](share, maxTenants int) *TenantLRU[V] {
	if share < 1 {
		share = 1
	}
	if maxTenants < 1 {
		maxTenants = 1024
	}
	return &TenantLRU[V]{caches: make(map[string]*tenantCache[V]), share: share, max: maxTenants}
}

// cacheFor returns the tenant's cache, creating (and possibly evicting the
// coldest tenant) on first use.
func (c *TenantLRU[V]) cacheFor(id string) *tenantCache[V] {
	c.mu.RLock()
	tc, ok := c.caches[id]
	c.mu.RUnlock()
	if ok {
		tc.last.Store(c.clock.Add(1))
		return tc
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if tc, ok = c.caches[id]; ok {
		tc.last.Store(c.clock.Add(1))
		return tc
	}
	if len(c.caches) >= c.max {
		c.dropColdestLocked()
	}
	// Small shares use a single-shard LRU so the per-tenant bound is
	// exact; big shares (the default tenant owning the whole cache) keep
	// full sharding for lock-contention spread.
	nshards := 1
	if c.share >= 4*lruShards {
		nshards = lruShards
	}
	tc = new(tenantCache[V])
	initLRU(&tc.lru, c.share, nshards)
	tc.last.Store(c.clock.Add(1))
	c.caches[id] = tc
	return tc
}

// dropColdestLocked evicts the least recently touched tenant cache.
// Callers hold the write lock.
func (c *TenantLRU[V]) dropColdestLocked() {
	var coldID string
	var cold *tenantCache[V]
	for id, tc := range c.caches {
		if cold == nil || tc.last.Load() < cold.last.Load() {
			coldID, cold = id, tc
		}
	}
	if cold == nil {
		return
	}
	c.evictions.Add(cold.lru.Evictions() + uint64(cold.lru.Len()))
	delete(c.caches, coldID)
}

// Get returns the cached value for the tenant's key.
func (c *TenantLRU[V]) Get(id, key string) (V, bool) {
	c.mu.RLock()
	tc, ok := c.caches[id]
	c.mu.RUnlock()
	if !ok {
		var zero V
		return zero, false
	}
	tc.last.Store(c.clock.Add(1))
	return tc.lru.Get(key)
}

// Put stores val under the tenant's key, evicting only within that
// tenant's capacity share. It reports whether an entry was evicted.
func (c *TenantLRU[V]) Put(id, key string, val V) bool {
	return c.cacheFor(id).lru.Put(key, val)
}

// Len returns the total number of cached entries across tenants.
func (c *TenantLRU[V]) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, tc := range c.caches {
		n += tc.lru.Len()
	}
	return n
}

// Tenants returns the number of resident tenant caches.
func (c *TenantLRU[V]) Tenants() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.caches)
}

// Evictions returns the total entries evicted for capacity, including the
// entries of dropped tenants.
func (c *TenantLRU[V]) Evictions() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := c.evictions.Load()
	for _, tc := range c.caches {
		n += tc.lru.Evictions()
	}
	return n
}

// Purge drops every tenant's entries (the tenant caches stay resident).
func (c *TenantLRU[V]) Purge() {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, tc := range c.caches {
		tc.lru.Purge()
	}
}
