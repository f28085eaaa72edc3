package servecache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dio/internal/tenant"
)

// tenantLen returns the number of entries cached for one tenant.
func tenantLen[V any](c *TenantLRU[V], id string) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if tc, ok := c.caches[id]; ok {
		return tc.lru.Len()
	}
	return 0
}

func TestTenantLRUIsolatedCapacity(t *testing.T) {
	c := NewTenantLRU[int](16, 8)
	c.Put("b", "keep", 1)
	// Tenant a overflows its own share many times over.
	for i := 0; i < 500; i++ {
		c.Put("a", fmt.Sprintf("k-%d", i), i)
	}
	if n := tenantLen(c, "a"); n > 16 {
		t.Fatalf("tenant a len = %d exceeds share 16", n)
	}
	// Tenant b's entry survived the neighbour's churn.
	if v, ok := c.Get("b", "keep"); !ok || v != 1 {
		t.Fatalf("tenant b entry lost: v=%d ok=%v", v, ok)
	}
	if c.Evictions() == 0 {
		t.Fatal("expected capacity evictions for tenant a")
	}
}

func TestTenantLRUDropsColdestTenant(t *testing.T) {
	c := NewTenantLRU[int](4, 2)
	c.Put("cold", "k", 1)
	c.Put("warm", "k", 2)
	c.Get("warm", "k") // warm is now more recently used than cold
	c.Put("hot", "k", 3)
	if c.Tenants() != 2 {
		t.Fatalf("resident tenants = %d, want 2", c.Tenants())
	}
	if _, ok := c.Get("cold", "k"); ok {
		t.Fatal("coldest tenant should have been dropped")
	}
	if _, ok := c.Get("warm", "k"); !ok {
		t.Fatal("warm tenant dropped instead of coldest")
	}
	if _, ok := c.Get("hot", "k"); !ok {
		t.Fatal("newest tenant missing")
	}
}

func TestTenantLRUConcurrent(t *testing.T) {
	c := NewTenantLRU[int](32, 16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				id := fmt.Sprintf("tenant-%d", (w+i)%24)
				k := fmt.Sprintf("k-%d", i%40)
				c.Put(id, k, i)
				c.Get(id, k)
			}
		}(w)
	}
	wg.Wait()
}

// newTenantFront builds a Front whose per-tenant version comes from a
// mutable map, mimicking catalog overlays.
func newTenantFront(share int, versions *sync.Map, computes *atomic.Int32) *Front[string] {
	return NewFront(FrontConfig[string]{
		Size:        64,
		TenantShare: share,
		TTL:         time.Minute,
		TenantVersion: func(id string) uint64 {
			if v, ok := versions.Load(id); ok {
				return v.(uint64)
			}
			return 0
		},
		Compute: func(ctx context.Context, q string) (string, error) {
			n := computes.Add(1)
			return fmt.Sprintf("%s/%s/#%d", tenant.From(ctx), q, n), nil
		},
	})
}

// TestFrontTenantKeyedAnswers pins that two tenants asking the same
// question get independently computed, independently cached answers.
func TestFrontTenantKeyedAnswers(t *testing.T) {
	var versions sync.Map
	var computes atomic.Int32
	f := newTenantFront(0, &versions, &computes)

	aCtx, bCtx := tctx("a"), tctx("b")
	va, st, err := f.Do(aCtx, "How many sessions?", false)
	if err != nil || st != StatusMiss {
		t.Fatalf("a first: st=%v err=%v", st, err)
	}
	vb, st, err := f.Do(bCtx, "How many sessions?", false)
	if err != nil || st != StatusMiss {
		t.Fatalf("b first: st=%v err=%v (tenant b must not see tenant a's entry)", st, err)
	}
	if va == vb {
		t.Fatalf("tenants shared an answer: %q", va)
	}
	if _, st, _ = f.Do(aCtx, "how many sessions", false); st != StatusHit {
		t.Fatalf("a revisit: st=%v, want hit", st)
	}
	if _, st, _ = f.Do(bCtx, "how many sessions", false); st != StatusHit {
		t.Fatalf("b revisit: st=%v, want hit", st)
	}
	if computes.Load() != 2 {
		t.Fatalf("pipeline ran %d times, want 2", computes.Load())
	}
}

// TestFrontTenantVersionIsolation pins the invalidation split: bumping
// tenant a's catalog version (a tenant-scoped expert contribution) must
// invalidate a's cached answers and leave tenant b's untouched.
func TestFrontTenantVersionIsolation(t *testing.T) {
	var versions sync.Map
	var computes atomic.Int32
	f := newTenantFront(0, &versions, &computes)

	aCtx, bCtx := tctx("a"), tctx("b")
	f.Do(aCtx, "q", false)
	f.Do(bCtx, "q", false)

	versions.Store("a", uint64(1)) // contribution lands for tenant a only
	if _, st, _ := f.Do(aCtx, "q", false); st != StatusMiss {
		t.Fatalf("a post-bump: st=%v, want miss", st)
	}
	if _, st, _ := f.Do(bCtx, "q", false); st != StatusHit {
		t.Fatalf("b post-bump: st=%v, want hit (a's feedback must not evict b)", st)
	}
}

// TestFrontTenantEvictionIsolation pins the capacity split: tenant a
// overflowing its share never evicts tenant b's answers.
func TestFrontTenantEvictionIsolation(t *testing.T) {
	var versions sync.Map
	var computes atomic.Int32
	f := newTenantFront(8, &versions, &computes)

	bCtx := tctx("b")
	f.Do(bCtx, "precious question", false)
	aCtx := tctx("a")
	for i := 0; i < 200; i++ {
		f.Do(aCtx, fmt.Sprintf("question %d", i), false)
	}
	if n := tenantLen(f.cache, "a"); n > 8 {
		t.Fatalf("tenant a entries = %d exceed share 8", n)
	}
	if _, st, _ := f.Do(bCtx, "precious question", false); st != StatusHit {
		t.Fatalf("b post-churn: st=%v, want hit (a's evictions must stay in a's share)", st)
	}
	if s := f.Stats(); s.Evictions == 0 || s.Tenants != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestFrontDefaultTenantBackCompat pins that a context without tenant
// identity behaves exactly like the default tenant — the pre-tenancy
// single-tenant world.
func TestFrontDefaultTenantBackCompat(t *testing.T) {
	var versions sync.Map
	var computes atomic.Int32
	f := newTenantFront(0, &versions, &computes)

	if _, st, _ := f.Do(context.Background(), "q", false); st != StatusMiss {
		t.Fatalf("bare ctx first: st=%v", st)
	}
	if _, st, _ := f.Do(tctx(tenant.Default), "q", false); st != StatusHit {
		t.Fatal("explicit default tenant must share the bare-context cache slot")
	}
	if computes.Load() != 1 {
		t.Fatalf("pipeline ran %d times, want 1", computes.Load())
	}
}
