package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func qle(query string, d time.Duration, samples int64) QueryLogEntry {
	return QueryLogEntry{Query: query, Kind: "instant", Duration: d, Samples: samples}
}

// TestQueryLogRings: each ring keeps its own top-K in descending order —
// slowest by duration, heaviest by samples — and the same entry can rank
// differently in the two.
func TestQueryLogRings(t *testing.T) {
	l := NewQueryLog(3, time.Second)
	l.Observe(qle("a", 10*time.Millisecond, 500))
	l.Observe(qle("b", 40*time.Millisecond, 100))
	l.Observe(qle("c", 20*time.Millisecond, 900))

	wantSlow := []string{"b", "c", "a"}
	for i, e := range l.Slowest() {
		if e.Query != wantSlow[i] {
			t.Errorf("Slowest[%d] = %q, want %q", i, e.Query, wantSlow[i])
		}
	}
	wantHeavy := []string{"c", "a", "b"}
	for i, e := range l.Heaviest() {
		if e.Query != wantHeavy[i] {
			t.Errorf("Heaviest[%d] = %q, want %q", i, e.Query, wantHeavy[i])
		}
	}
}

// TestQueryLogEviction: a full ring evicts its smallest entry for a larger
// newcomer and drops below-minimum newcomers outright.
func TestQueryLogEviction(t *testing.T) {
	l := NewQueryLog(3, time.Second)
	for i := 1; i <= 3; i++ {
		l.Observe(qle(fmt.Sprintf("q%d", i), time.Duration(i)*10*time.Millisecond, int64(i)))
	}
	// Below the current minimum on a full ring: dropped.
	l.Observe(qle("tiny", time.Millisecond, 0))
	if got := l.Slowest(); len(got) != 3 || got[2].Query != "q1" {
		t.Fatalf("below-min insert changed the ring: %+v", got)
	}
	// Above the maximum: takes first place, evicts the minimum.
	l.Observe(qle("huge", time.Second, 10))
	got := l.Slowest()
	if len(got) != 3 || got[0].Query != "huge" || got[2].Query != "q2" {
		t.Fatalf("eviction wrong: %+v", got)
	}
	for _, e := range got {
		if e.Query == "q1" {
			t.Error("minimum entry q1 survived eviction")
		}
	}
}

// TestQueryLogSlowMarking: Observe stamps Slow from the threshold, and the
// dio_query_* metrics count totals and slow queries.
func TestQueryLogSlowMarking(t *testing.T) {
	reg := NewRegistry()
	l := NewQueryLog(8, 50*time.Millisecond)
	l.Instrument(reg)
	if l.Threshold() != 50*time.Millisecond {
		t.Errorf("Threshold = %v, want 50ms", l.Threshold())
	}
	l.Observe(qle("fast", 10*time.Millisecond, 1))
	l.Observe(qle("slow", 60*time.Millisecond, 1))
	var fast, slow bool
	for _, e := range l.Slowest() {
		switch e.Query {
		case "fast":
			fast = e.Slow
		case "slow":
			slow = e.Slow
		}
	}
	if fast {
		t.Error("below-threshold query marked slow")
	}
	if !slow {
		t.Error("at-threshold query not marked slow")
	}
	if got := l.slow.Value(); got != 1 {
		t.Errorf("dio_query_slow_total = %v, want 1", got)
	}
}

// TestQueryLogDefaults: zero capacity and threshold fall back to 64 and 1s.
func TestQueryLogDefaults(t *testing.T) {
	l := NewQueryLog(0, 0)
	if l.capacity != 64 {
		t.Errorf("default capacity = %d, want 64", l.capacity)
	}
	if l.Threshold() != time.Second {
		t.Errorf("default threshold = %v, want 1s", l.Threshold())
	}
}

// TestQueryLogConcurrent hammers Observe from many goroutines; run under
// -race this pins the lock discipline, and the rings must come out full,
// ordered, and holding the true top-K.
func TestQueryLogConcurrent(t *testing.T) {
	l := NewQueryLog(16, time.Second)
	var wg sync.WaitGroup
	const workers, each = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				d := time.Duration(w*each+i+1) * time.Microsecond
				l.Observe(qle(fmt.Sprintf("w%d-%d", w, i), d, int64(d)))
			}
		}(w)
	}
	wg.Wait()
	got := l.Slowest()
	if len(got) != 16 {
		t.Fatalf("ring holds %d entries, want 16", len(got))
	}
	// The global maximum is workers*each µs; the ring must hold the top 16
	// in strictly descending order.
	for i, e := range got {
		want := time.Duration(workers*each-i) * time.Microsecond
		if e.Duration != want {
			t.Errorf("Slowest[%d].Duration = %v, want %v", i, e.Duration, want)
		}
	}
}

// countingPlan is an analyzed plan that counts its renders.
type countingPlan struct{ renders int }

func (p *countingPlan) Compact() string { p.renders++; return "plan" }

// TestQueryLogRendersKeptPlansOnly: Observe renders the plan of an entry
// a ring keeps, once, and never the plan of an entry both full rings
// refuse.
func TestQueryLogRendersKeptPlansOnly(t *testing.T) {
	l := NewQueryLog(2, time.Second)
	for i := 1; i <= 2; i++ {
		e := qle(fmt.Sprintf("q%d", i), time.Duration(i)*10*time.Millisecond, int64(i)*100)
		e.Analyzed = &countingPlan{}
		l.Observe(e)
		if got := e.Analyzed.(*countingPlan).renders; got != 1 {
			t.Errorf("kept entry q%d rendered its plan %d times, want 1", i, got)
		}
	}
	refused := qle("refused", time.Millisecond, 1)
	plan := &countingPlan{}
	refused.Analyzed = plan
	l.Observe(refused)
	if plan.renders != 0 {
		t.Errorf("an entry neither ring keeps rendered its plan %d times", plan.renders)
	}
	// Heavier than the heaviest ring's last entry only: kept, and rendered.
	heavy := qle("heavy", time.Millisecond, 150)
	heavy.Analyzed = &countingPlan{}
	l.Observe(heavy)
	for _, ring := range [][]QueryLogEntry{l.Slowest(), l.Heaviest()} {
		for _, e := range ring {
			if e.Plan != "plan" || e.Analyzed != nil {
				t.Errorf("ring entry %q has Plan %q and Analyzed %v, want the rendered plan only", e.Query, e.Plan, e.Analyzed)
			}
			if e.Query == "refused" {
				t.Errorf("a ring kept the refused entry")
			}
		}
	}
	if got := l.Heaviest(); len(got) != 2 || got[1].Query != "heavy" {
		t.Errorf("heaviest ring = %+v, want q2 then heavy", got)
	}
}
