package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"dio/internal/tsdb"
)

// oneSample is a push of one sample, at t with value v, to the series m{ue}.
func oneSample(ue string, t int64, v float64) TimeSeries {
	return TimeSeries{
		Labels:  tsdb.FromMap(map[string]string{"__name__": "m", "ue": ue}),
		Samples: []tsdb.Sample{{T: t, V: v}},
	}
}

// TestConcurrentPushesApplyInWALOrder: push A logs t=1000 and is held
// before its TSDB apply; push B, t=2000 to the same series, starts then.
// B must not apply before A: had it, A's sample would be dropped as out of
// order live (and reported dropped) yet come back on replay, which runs
// in WAL order. The live store must equal the store reopened on its
// directory.
func TestConcurrentPushesApplyInWALOrder(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	logged, release := make(chan struct{}), make(chan struct{})
	defer SetAfterLog(func(batch []TimeSeries) {
		if batch[0].Samples[0].T == 1000 {
			close(logged)
			<-release
		}
	})()

	type result struct {
		st  AppendStats
		err error
	}
	push := func(ts TimeSeries) <-chan result {
		done := make(chan result, 1)
		go func() {
			as, err := st.Append([]TimeSeries{ts})
			done <- result{as, err}
		}()
		return done
	}
	aDone := push(oneSample("u", 1000, 1))
	<-logged
	bDone := push(oneSample("u", 2000, 2))
	var b result
	bEarly := false
	select {
	case b = <-bDone:
		bEarly = true
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	a := <-aDone
	if !bEarly {
		b = <-bDone
	}
	if a.err != nil || b.err != nil {
		t.Fatal(a.err, b.err)
	}
	if bEarly {
		t.Error("push B returned while push A, logged before it, was held before its apply")
	}
	if a.st.Appended != 1 || b.st.Appended != 1 {
		t.Errorf("push A %+v, push B %+v: want one sample appended by each", a.st, b.st)
	}

	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	live, replayed := st.DB().AllSeries(), re.DB().AllSeries()
	if !reflect.DeepEqual(live, replayed) {
		t.Fatalf("live store %v, reopened %v", live, replayed)
	}
}

// TestStoreRefsSurviveRetention: the store appends by the TSDB refs it
// keeps per WAL ref. When retention drops a pushed series, the same labels
// pushed again land in a fresh series (a new ref), resolved from the
// labels the store kept when the series was new; the series retention
// kept keeps its ref; and after every step the store holds exactly what
// plain appends by label produce, so no sample reaches another series.
// The sequence runs through Append and through a binary Push.
func TestStoreRefsSurviveRetention(t *testing.T) {
	for name, appendTo := range map[string]func(*Store, []TimeSeries) (AppendStats, error){
		"append": (*Store).Append,
		"binary": func(st *Store, batch []TimeSeries) (AppendStats, error) {
			return st.Push(bytes.NewReader(EncodeBinary(batch)), ContentTypeBinary)
		},
	} {
		t.Run(name, func(t *testing.T) { storeRefsSurviveRetention(t, appendTo) })
	}
}

func storeRefsSurviveRetention(t *testing.T, appendTo func(*Store, []TimeSeries) (AppendStats, error)) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	want := tsdb.New()
	push := func(batch ...TimeSeries) {
		t.Helper()
		as, err := appendTo(st, batch)
		if err != nil {
			t.Fatal(err)
		}
		if as.Appended != len(batch) {
			t.Fatalf("appended %+v of %d samples", as, len(batch))
		}
		for _, ts := range batch {
			if err := want.Append(ts.Labels, ts.Samples[0].T, ts.Samples[0].V); err != nil {
				t.Fatal(err)
			}
		}
		identicalStores(t, st.DB(), want)
	}
	x, y := oneSample("x", 0, 0).Labels, oneSample("y", 0, 0).Labels

	push(oneSample("x", 1000, 1), oneSample("y", 5000, 5))
	x0, y0 := st.tsdbRef(x), st.tsdbRef(y)
	if x0 == 0 || y0 == 0 || x0 == y0 {
		t.Fatalf("refs after the first push: x %d, y %d", x0, y0)
	}
	if _, err := st.Truncate(2000); err != nil { // drops x, keeps y
		t.Fatal(err)
	}
	want.Truncate(2000)
	identicalStores(t, st.DB(), want)

	push(oneSample("x", 3000, 3), oneSample("y", 6000, 6))
	x1, y1 := st.tsdbRef(x), st.tsdbRef(y)
	if x1 == x0 || x1 <= y0 {
		t.Errorf("x's ref went %d -> %d after retention dropped it: want a fresh ref above %d", x0, x1, max(x0, y0))
	}
	if y1 != y0 {
		t.Errorf("y's ref went %d -> %d though retention kept it", y0, y1)
	}
	push(oneSample("y", 7000, 7), oneSample("x", 4000, 4))
	if st.tsdbRef(y) != y1 || st.tsdbRef(x) != x1 {
		t.Errorf("refs moved on a push in the other order: y %d -> %d, x %d -> %d", y1, st.tsdbRef(y), x1, st.tsdbRef(x))
	}

	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	identicalStores(t, re.DB(), want)
}

// TestConcurrentPushesMatchSerialReplay: four goroutines push overlapping
// series sets, with timestamps that interleave and collide, so whether a
// sample is kept depends on the order the pushes apply in. The store must
// equal plain appends of the same pushes, one at a time, in the order the
// store applied them, with the same counts; so must its reopened copy.
// Under -race it also checks the store's ref slice and scratch.
func TestConcurrentPushesMatchSerialReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var order [][]TimeSeries // appended to under the store's append lock
	defer SetAfterLog(func(batch []TimeSeries) { order = append(order, batch) })()

	const writers, pushes, seriesN = 4, 20, 10
	var mu sync.Mutex
	var got AppendStats
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < pushes; i++ {
				var batch []TimeSeries
				for k := 0; k < 5; k++ {
					// Writers 0 and 2 (and 1 and 3) stamp the same
					// times with different values: duplicates.
					at := int64(i+1)*1000 + int64(g%2)
					batch = append(batch, oneSample(fmt.Sprintf("ue%d", (3*g+k+i)%seriesN), at, float64(g)))
				}
				as, err := st.Append(batch)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				got.Appended += as.Appended
				got.OutOfOrder += as.OutOfOrder
				got.Duplicate += as.Duplicate
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	want := tsdb.New()
	var counts AppendStats
	for _, batch := range order {
		for _, ts := range batch {
			switch err := want.Append(ts.Labels, ts.Samples[0].T, ts.Samples[0].V); {
			case err == nil:
				counts.Appended++
			case errors.Is(err, tsdb.ErrDuplicateTimestamp):
				counts.Duplicate++
			case errors.Is(err, tsdb.ErrOutOfOrder):
				counts.OutOfOrder++
			default:
				t.Fatal(err)
			}
		}
	}
	if len(order) != writers*pushes || got != counts {
		t.Errorf("%d pushes applied, counts %+v; serial replay of %d: %+v", len(order), got, writers*pushes, counts)
	}
	t.Logf("%d pushes applied: %+v", len(order), counts)
	identicalStores(t, st.DB(), want)
	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	identicalStores(t, re.DB(), want)
}
