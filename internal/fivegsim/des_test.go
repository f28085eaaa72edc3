package fivegsim

import (
	"container/heap"
	"math/rand"
	"testing"

	"dio/internal/catalog"
	"dio/internal/tsdb"
)

// oracleQueue is the container/heap event queue the typed heap replaced,
// with its own copy of the (at, seq) order.
type oracleQueue []*event

func (q oracleQueue) Len() int { return len(q) }
func (q oracleQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q oracleQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *oracleQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *oracleQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// TestEventQueueMatchesContainerHeap interleaves pushes and pops with many
// tied times, as the DES schedules them, and requires the typed heap to
// pop exactly the events container/heap pops.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q eventQueue
	var oracle oracleQueue
	seq, pops := 0, 0
	for op := 0; op < 200_000; op++ {
		// Push a little more often than pop, so the heap grows deep
		// before the final drain.
		if len(q) == 0 || rng.Intn(9) < 5 {
			seq++
			// Eight distinct times: most events tie on at and are
			// ordered by seq alone.
			e := event{at: float64(rng.Intn(8)), kind: eventKind(rng.Intn(9)), seq: seq}
			q.push(e)
			heap.Push(&oracle, &e)
			continue
		}
		got, want := q.pop(), *heap.Pop(&oracle).(*event)
		if got != want {
			t.Fatalf("pop %d: got %+v, want %+v", pops, got, want)
		}
		pops++
	}
	for len(q) > 0 {
		got, want := q.pop(), *heap.Pop(&oracle).(*event)
		if got != want {
			t.Fatalf("drain pop %d: got %+v, want %+v", pops, got, want)
		}
		pops++
	}
	if oracle.Len() != 0 {
		t.Fatalf("oracle still holds %d events", oracle.Len())
	}
}

// TestPopulateAllocations holds Populate's allocations on shortConfig
// under half of the 155 368 it made while every event was a heap-allocated
// *event, every scrape label set was built through a map and every head
// chunk grew from an empty buffer. It measures about 71 000 today.
func TestPopulateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	const ceiling = 77_000
	cat := catalog.Generate()
	cfg := shortConfig()
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Populate(tsdb.New(), cat, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("Populate allocated %.0f times, ceiling %d", allocs, ceiling)
	}
}
