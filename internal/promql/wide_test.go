package promql

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dio/internal/tsdb"
)

// wideDB builds 2 003 counters over 15 minutes at 30 s. wide_a_total and
// wide_b_total share the label sets of UEs u-015..u-024, so a selector
// over both names collides when the name is dropped, and reorders where
// only one name has the set. Every fourth instance carries an upper-case
// Zone label, which sorts before __name__; three identical wide_a_total
// series carry nothing else, so dropping the name reverses their order
// within one metric, and which of them a topk keeps shows it. Some series
// start at minute 5, some stop at minute 10, and some reset.
func wideDB(t testing.TB) (*tsdb.DB, time.Time, time.Time) {
	t.Helper()
	db := tsdb.New()
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	const steps = 30 // 15 minutes at 30 s
	add := func(ls tsdb.Labels, seed int) {
		v := 0.0
		for s := 0; s <= steps; s++ {
			if (seed%5 == 1 && s < 10) || (seed%5 == 2 && s > 20) {
				continue
			}
			v += float64((s*7 + seed*13) % 100)
			if seed%7 == 0 && s == 15 {
				v = 0
			}
			if err := db.Append(ls, base.Add(time.Duration(s)*30*time.Second).UnixMilli(), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, m := range []struct {
		name   string
		ue0    int
		salt   int
		series int
	}{{"wide_a_total", 0, 0, 25}, {"wide_b_total", 15, 3, 25}} {
		for i := 0; i < 40; i++ {
			for u := m.ue0; u < m.ue0+m.series; u++ {
				lm := map[string]string{
					"__name__": m.name, "job": "j",
					"instance": fmt.Sprintf("i-%02d", i), "ue": fmt.Sprintf("u-%03d", u),
				}
				if i%4 == 0 {
					lm["Zone"] = fmt.Sprintf("z%d", i/4%3)
				}
				add(tsdb.FromMap(lm), i*50+u+m.salt)
			}
		}
	}
	for _, zone := range []string{"q", "qq", "qqq"} {
		add(tsdb.FromMap(map[string]string{"__name__": "wide_a_total", "Zone": zone}), 3)
	}
	return db, base, base.Add(steps * 30 * time.Second)
}

// wideCorpus is the aggregation and range-function mix over wideDB: by and
// without grouping, every aggregation that orders or regroups its input,
// nested aggregations, instant selectors under an aggregation,
// subqueries, and selectors whose name drop reorders or collides.
var wideCorpus = []string{
	"rate(wide_a_total[1m])",
	"sum by (instance) (rate(wide_a_total[1m]))",
	"sum without (ue) (rate(wide_a_total[1m]))",
	"avg by (Zone) (rate(wide_b_total[2m]))",
	"avg without (instance, ue) (rate(wide_a_total[1m]))",
	"topk(3, rate(wide_a_total[1m]))",
	"topk by (instance) (1, rate(wide_b_total[1m]))",
	"topk by (job) (1, rate(wide_a_total[1m]))",
	"bottomk(2, sum by (instance) (rate(wide_b_total[1m])))",
	`count_values by (Zone) ("v", rate(wide_a_total[1m]))`,
	"quantile by (instance) (0.9, rate(wide_a_total[1m]))",
	"max by (Zone) (sum by (Zone, instance) (rate(wide_a_total[1m])))",
	"sum by (instance) (wide_b_total)",
	"max_over_time(sum by (instance) (rate(wide_a_total[1m]))[3m:1m])",
	// Subqueries: an inner step that no outer step is a multiple of, a
	// nested subquery, offsets at both levels, and rate and increase over
	// counters that reset inside the subquery's windows.
	"avg_over_time(sum by (instance) (wide_b_total)[2m:40s])",
	"max_over_time(avg_over_time(sum by (Zone) (wide_a_total)[1m:20s])[3m:1m])",
	"sum_over_time(sum by (instance) (wide_a_total offset 1m)[3m:30s] offset 2m)",
	"max_over_time(rate(wide_a_total[1m])[2m:30s])",
	"min_over_time(sum by (instance) (increase(wide_b_total[2m]))[3m:1m])",
	`rate({__name__=~"wide_.*", ue!~"u-01[5-9]|u-02[0-4]"}[1m])`,
	`sum(rate({__name__=~"wide_.*", ue!~"u-01[5-9]|u-02[0-4]"}[1m]))`,
	`avg by (Zone) (rate({__name__=~"wide_.*", ue!~"u-01[5-9]|u-02[0-4]"}[1m]))`,
	`rate({__name__=~"wide_.*"}[1m])`,
	`sum by (instance) (rate({__name__=~"wide_.*"}[1m]))`,
	`topk(2, rate({__name__=~"wide_.*"}[1m]))`,
}

// TestWideEquivalence holds the executor to the oracle, byte for byte,
// over 2 003 series: streamed off the readers with the arena reset after
// every step, on the heap with no arena, and with pool poisoning.
func TestWideEquivalence(t *testing.T) {
	db, start, end := wideDB(t)
	heap := NewEngine(db, DefaultEngineOptions())
	heap.noArena = true
	variants := map[string]*Engine{"streamed": NewEngine(db, DefaultEngineOptions()), "no-arena": heap}

	ctx := context.Background()
	check := func(name string, eng *Engine, q, want string) {
		t.Helper()
		m, err := queryRange(ctx, eng, q, start, end, 45*time.Second)
		if err != nil {
			t.Fatalf("%s %q: %v", name, q, err)
		}
		if got := m.String(); got != want {
			t.Errorf("%s %q: matrices differ from the oracle", name, q)
		}
	}
	for _, q := range wideCorpus {
		ref, err := oracleQueryRange(ctx, heap, q, start, end, 45*time.Second)
		if err != nil {
			t.Fatalf("oracle %q: %v", q, err)
		}
		if len(ref) == 0 {
			t.Fatalf("oracle %q: empty result", q)
		}
		want := ref.String()
		for name, eng := range variants {
			check(name, eng, q, want)
		}
		poisonPools.Store(true)
		check("poisoned", variants["streamed"], q, want)
		poisonPools.Store(false)
	}
}
