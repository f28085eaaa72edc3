package servecache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dio/internal/tenant"
)

// tctx returns a context carrying a tenant identity.
func tctx(id string) context.Context { return tenant.WithID(context.Background(), id) }

// manualClock drives a FairGate's token buckets deterministically.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *manualClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestFairGateQuotaExhaustion(t *testing.T) {
	g := NewFairGate(8, time.Second)
	clock := &manualClock{t: time.Unix(1000, 0)}
	g.now = clock.now
	g.SetQuota("acme", tenant.Quota{Rate: 1, Burst: 2})
	ctx := tctx("acme")

	// Burst capacity admits two back-to-back requests.
	for i := 0; i < 2; i++ {
		release, err := g.Acquire(ctx)
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		release()
	}
	// The bucket is empty: the third request sheds as a quota error with
	// a refill-derived Retry-After (1 token at 1 token/s = 1s).
	_, err := g.Acquire(ctx)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("err %T is not a *ShedError", err)
	}
	if shed.Tenant != "acme" || !shed.Quota {
		t.Fatalf("shed = %+v", shed)
	}
	if shed.RetryAfter < 900*time.Millisecond || shed.RetryAfter > 1100*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want ~1s", shed.RetryAfter)
	}
	if errors.Is(err, ErrOverloaded) {
		t.Fatal("quota shed must not match ErrOverloaded")
	}
	if g.Rejected() != 1 {
		t.Fatalf("Rejected = %d, want 1", g.Rejected())
	}

	// One refill interval later the tenant is admitted again.
	clock.advance(time.Second)
	release, err := g.Acquire(ctx)
	if err != nil {
		t.Fatalf("post-refill acquire: %v", err)
	}
	release()

	// Other tenants are untouched by acme's empty bucket.
	release, err = g.Acquire(tctx("bystander"))
	if err != nil {
		t.Fatalf("bystander acquire: %v", err)
	}
	release()

	g.mu.Lock()
	tokens := g.tenants["acme"].tokens
	g.mu.Unlock()
	if tokens < 0 || tokens >= 1 {
		t.Fatalf("acme tokens = %g, want [0,1)", tokens)
	}
}

// TestFairGateDRRFairnessUnderSkew queues a large backlog for one tenant
// and a small one for another, then releases slots one at a time: DRR must
// interleave the tenants instead of draining the big backlog first (the
// old FIFO behaviour).
func TestFairGateDRRFairnessUnderSkew(t *testing.T) {
	g := NewFairGate(1, 30*time.Second)
	hold, err := g.Acquire(tctx("warmup"))
	if err != nil {
		t.Fatal(err)
	}

	const heavyN, lightN = 12, 3
	order := make(chan string, heavyN+lightN)
	var wg sync.WaitGroup
	enqueue := func(id string, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				release, err := g.Acquire(tctx(id))
				if err != nil {
					t.Errorf("%s acquire: %v", id, err)
					return
				}
				order <- id
				release()
			}()
			// Serialise enqueue order within the tenant so the heavy
			// backlog is fully queued before light arrives.
			for int(g.queued.Load()) < i+1 && id == "heavy" {
				time.Sleep(time.Millisecond)
			}
		}
	}
	enqueue("heavy", heavyN)
	for int(g.queued.Load()) < heavyN {
		time.Sleep(time.Millisecond)
	}
	enqueue("light", lightN)
	for int(g.queued.Load()) < heavyN+lightN {
		time.Sleep(time.Millisecond)
	}

	hold() // start draining: one slot, granted by DRR
	wg.Wait()
	close(order)

	var got []string
	for id := range order {
		got = append(got, id)
	}
	// With equal weights the ring alternates heavy/light, so every light
	// waiter must be served within the first 2*lightN grants — under FIFO
	// they would all come after the 12 heavy ones.
	lightSeen := 0
	for i, id := range got[:2*lightN] {
		_ = i
		if id == "light" {
			lightSeen++
		}
	}
	if lightSeen != lightN {
		t.Fatalf("light tenant served %d/%d times in the first %d grants (order %v)",
			lightSeen, lightN, 2*lightN, got)
	}
}

// TestFairGateWeightedShare gives one tenant weight 3 and checks it
// receives ~3x the grants of a weight-1 tenant while both stay backlogged.
func TestFairGateWeightedShare(t *testing.T) {
	g := NewFairGate(1, 30*time.Second)
	g.SetQuota("gold", tenant.Quota{Weight: 3})
	hold, err := g.Acquire(tctx("warmup"))
	if err != nil {
		t.Fatal(err)
	}

	const perTenant = 12
	order := make(chan string, 2*perTenant)
	var wg sync.WaitGroup
	for _, id := range []string{"gold", "bronze"} {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				release, err := g.Acquire(tctx(id))
				if err != nil {
					t.Errorf("%s acquire: %v", id, err)
					return
				}
				order <- id
				release()
			}(id)
		}
	}
	for int(g.queued.Load()) < 2*perTenant {
		time.Sleep(time.Millisecond)
	}
	hold()
	wg.Wait()
	close(order)

	gold := 0
	seen := 0
	for id := range order {
		if seen >= 8 {
			continue
		}
		seen++
		if id == "gold" {
			gold++
		}
	}
	// In the first 8 grants a 3:1 weight split should give gold 6 — allow
	// scheduling slop of one round either way.
	if gold < 5 || gold > 7 {
		t.Fatalf("gold got %d of the first 8 grants, want ~6 (3:1 weights)", gold)
	}
}

// TestFairGateStarvationFreedom hammers the gate from many tenants with
// wildly different offered loads (run under -race by scripts/verify.sh):
// every request must eventually be admitted — nobody starves, nothing
// sheds, and the gate's slot accounting survives the churn.
func TestFairGateStarvationFreedom(t *testing.T) {
	g := NewFairGate(4, 10*time.Second)
	var wg sync.WaitGroup
	var admitted [8]int64
	for ti := 0; ti < 8; ti++ {
		n := 4 << (ti % 4) // skewed offered load: 4..32 requests per tenant
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(ti int) {
				defer wg.Done()
				release, err := g.Acquire(tctx(fmt.Sprintf("tenant-%d", ti)))
				if err != nil {
					t.Errorf("tenant-%d: %v", ti, err)
					return
				}
				time.Sleep(time.Millisecond)
				release()
			}(ti)
		}
		_ = admitted
	}
	wg.Wait()
	if g.Rejected() != 0 {
		t.Fatalf("Rejected = %d, want 0", g.Rejected())
	}
	g.mu.Lock()
	got := g.inflight
	g.mu.Unlock()
	if got != 0 {
		t.Fatalf("inflight after drain = %d, want 0", got)
	}
}

// TestFairGateQueueShedRetryAfter pins that queue-overload sheds carry a
// ShedError too, with a non-zero Retry-After.
func TestFairGateQueueShedRetryAfter(t *testing.T) {
	g := NewFairGate(1, 20*time.Millisecond)
	hold, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer hold()
	_, err = g.Acquire(tctx("acme"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("err %T is not a *ShedError", err)
	}
	if shed.Quota || shed.Tenant != "acme" || shed.RetryAfter <= 0 {
		t.Fatalf("shed = %+v", shed)
	}
}

// TestFairGateTimeoutRefundsToken verifies a queue-shed request gives its
// bucket token back: being shed by the server must not double-charge the
// tenant's quota.
func TestFairGateTimeoutRefundsToken(t *testing.T) {
	g := NewFairGate(1, 10*time.Millisecond)
	g.SetQuota("acme", tenant.Quota{Rate: 0.001, Burst: 1}) // effectively no refill
	hold, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Acquire(tctx("acme")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	hold()
	// The token was refunded on the queue shed, so the tenant can use it.
	release, err := g.Acquire(tctx("acme"))
	if err != nil {
		t.Fatalf("post-refund acquire: %v", err)
	}
	release()
}
