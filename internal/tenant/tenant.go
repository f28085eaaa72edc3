// Package tenant defines the tenant identity threaded through the
// serving path: httpapi extracts it from the request, stamps it into the
// context, and every layer below (admission gate, answer cache, retrieval
// cache, catalog overlays, slow-query log) keys on it.
//
// The package is intentionally a leaf — stdlib only — so servecache, core,
// catalog, promql and httpapi can all import it without cycles.
//
// Requests without identity run as the Default tenant, which preserves the
// single-tenant behaviour (and byte-identical responses) of the
// pre-tenancy serving path.
package tenant

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Default is the tenant requests run as when no identity is supplied —
// the back-compat single-tenant world.
const Default = "default"

// Overflow is the metric label tenants collapse to once a LabelCapper's
// cardinality bound is reached.
const Overflow = "other"

// maxIDLen bounds wire-supplied tenant identifiers.
const maxIDLen = 64

type ctxKey struct{}

// WithID returns ctx carrying the tenant identity. An empty id maps to
// Default.
func WithID(ctx context.Context, id string) context.Context {
	if id == "" {
		id = Default
	}
	return context.WithValue(ctx, ctxKey{}, id)
}

// From returns the tenant identity carried by ctx, or Default when the
// context carries none.
func From(ctx context.Context) string {
	if id, ok := ctx.Value(ctxKey{}).(string); ok && id != "" {
		return id
	}
	return Default
}

// Normalize canonicalises a wire-supplied tenant identifier: lower-cased,
// trimmed, restricted to [a-z0-9._-] (anything else becomes '-') and
// truncated to 64 bytes. It returns "" for an empty input so callers can
// fall through to token mapping or the default tenant.
func Normalize(id string) string {
	id = strings.ToLower(strings.TrimSpace(id))
	if id == "" {
		return ""
	}
	if len(id) > maxIDLen {
		id = id[:maxIDLen]
	}
	var b strings.Builder
	b.Grow(len(id))
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
			b.WriteByte(c)
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

// Quota bounds one tenant's admission to the expensive ask pipeline.
// The zero value is an unlimited quota with weight 1.
type Quota struct {
	// Rate is the sustained request budget in requests/second refilled
	// into the tenant's token bucket; <= 0 means unlimited (no bucket).
	Rate float64
	// Burst is the bucket capacity — how many requests may arrive
	// back-to-back before the rate applies; <= 0 defaults to
	// max(Rate, 1).
	Burst float64
	// Weight is the tenant's deficit-round-robin share of admission
	// slots when the gate queues; < 1 is treated as 1.
	Weight int
}

// Unlimited reports whether the quota imposes no token bucket.
func (q Quota) Unlimited() bool { return q.Rate <= 0 }

// NormWeight returns the effective DRR weight (at least 1).
func (q Quota) NormWeight() int {
	if q.Weight < 1 {
		return 1
	}
	return q.Weight
}

// NormBurst returns the effective bucket capacity.
func (q Quota) NormBurst() float64 {
	if q.Burst > 0 {
		return q.Burst
	}
	if q.Rate > 1 {
		return q.Rate
	}
	return 1
}

// ParseQuotas parses a -tenant-quotas flag value. The spec is a
// comma-separated list of tenant=rate[:burst[:weight]] entries, e.g.
//
//	"default=50,acme=200:400:4,probe=10:10"
//
// Rate is requests/second (0 = unlimited), burst defaults to max(rate, 1)
// and weight to 1. The "*" tenant sets the default quota for tenants not
// named in the spec.
func ParseQuotas(spec string) (map[string]Quota, error) {
	out := make(map[string]Quota)
	if strings.TrimSpace(spec) == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("tenant: quota entry %q: want tenant=rate[:burst[:weight]]", part)
		}
		id := strings.TrimSpace(name)
		if id != "*" {
			id = Normalize(id)
		}
		if id == "" {
			return nil, fmt.Errorf("tenant: quota entry %q: empty tenant", part)
		}
		fields := strings.Split(val, ":")
		if len(fields) > 3 {
			return nil, fmt.Errorf("tenant: quota entry %q: too many fields", part)
		}
		var q Quota
		var err error
		if q.Rate, err = strconv.ParseFloat(strings.TrimSpace(fields[0]), 64); err != nil {
			return nil, fmt.Errorf("tenant: quota entry %q: bad rate: %w", part, err)
		}
		if len(fields) > 1 {
			if q.Burst, err = strconv.ParseFloat(strings.TrimSpace(fields[1]), 64); err != nil {
				return nil, fmt.Errorf("tenant: quota entry %q: bad burst: %w", part, err)
			}
		}
		if len(fields) > 2 {
			if q.Weight, err = strconv.Atoi(strings.TrimSpace(fields[2])); err != nil {
				return nil, fmt.Errorf("tenant: quota entry %q: bad weight: %w", part, err)
			}
		}
		out[id] = q
	}
	return out, nil
}

// LabelCapper bounds the cardinality of tenant-labelled metrics: the
// first max distinct tenants keep their own label value, later ones
// collapse to Overflow. The Default tenant always passes. Safe for
// concurrent use.
type LabelCapper struct {
	mu   sync.Mutex
	max  int
	seen map[string]struct{}
}

// NewLabelCapper returns a capper admitting max distinct tenant labels
// (minimum 1; Default does not count against the budget).
func NewLabelCapper(max int) *LabelCapper {
	if max < 1 {
		max = 1
	}
	return &LabelCapper{max: max, seen: make(map[string]struct{})}
}

// Label returns the metric label value for a tenant: the tenant itself
// while the cardinality budget lasts, Overflow afterwards.
func (c *LabelCapper) Label(id string) string {
	if id == Default {
		return id
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.seen[id]; ok {
		return id
	}
	if len(c.seen) >= c.max {
		return Overflow
	}
	c.seen[id] = struct{}{}
	return id
}
