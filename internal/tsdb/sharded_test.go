package tsdb

import (
	"fmt"
	"reflect"
	"testing"
)

// shardedFixture appends the same mixed series set to a single DB and
// to ShardedDBs at several shard counts, returning all of them.
func shardedFixture(t *testing.T) (*DB, map[int]*ShardedDB) {
	t.Helper()
	single := New()
	counts := []int{1, 2, 4, 8}
	sharded := make(map[int]*ShardedDB, len(counts))
	for _, n := range counts {
		sharded[n] = NewSharded(n)
	}
	for i := 0; i < 20; i++ {
		ls := FromMap(map[string]string{
			MetricNameLabel: fmt.Sprintf("metric_%d", i%3),
			"instance":      fmt.Sprintf("host-%02d", i),
			"zone":          fmt.Sprintf("z%d", i%2),
		})
		for ts := int64(0); ts < 10; ts++ {
			v := float64(i)*100 + float64(ts)
			if err := single.Append(ls, ts*1000, v); err != nil {
				t.Fatal(err)
			}
			for _, sh := range sharded {
				if err := sh.Append(ls, ts*1000, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return single, sharded
}

func TestShardedRoutingIsStable(t *testing.T) {
	sh := NewSharded(4)
	ls := FromMap(map[string]string{MetricNameLabel: "m", "a": "b"})
	want := sh.shardFor(ls)
	for i := 0; i < 10; i++ {
		if got := sh.shardFor(ls); got != want {
			t.Fatalf("shardFor not stable: %d vs %d", got, want)
		}
	}
	if err := sh.Append(ls, 1, 1); err != nil {
		t.Fatal(err)
	}
	for i, db := range sh.shards {
		wantN := 0
		if i == want {
			wantN = 1
		}
		if db.NumSeries() != wantN {
			t.Fatalf("shard %d holds %d series, want %d", i, db.NumSeries(), wantN)
		}
	}
}

func TestShardedReadsMatchSingle(t *testing.T) {
	single, sharded := shardedFixture(t)
	matchers := []*Matcher{MustMatcher(MatchEqual, MetricNameLabel, "metric_0")}
	all := []*Matcher{MustMatcher(MatchRegexp, MetricNameLabel, "metric_.*")}

	for n, sh := range sharded {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			if got, want := sh.NumSeries(), single.NumSeries(); got != want {
				t.Fatalf("NumSeries = %d, want %d", got, want)
			}
			if got, want := sh.NumSamples(), single.NumSamples(); got != want {
				t.Fatalf("NumSamples = %d, want %d", got, want)
			}
			if !reflect.DeepEqual(sh.Select(matchers, 9000, 300000), single.Select(matchers, 9000, 300000)) {
				t.Fatal("Select mismatch")
			}
			if !reflect.DeepEqual(sh.SelectRange(all, 0, 9000), single.SelectRange(all, 0, 9000)) {
				t.Fatal("SelectRange mismatch")
			}
			gotViews := sh.SelectSeries(all)
			wantViews := single.SelectSeries(all)
			if !reflect.DeepEqual(gotViews, wantViews) {
				t.Fatal("SelectSeries mismatch")
			}
			for i := 1; i < len(gotViews); i++ {
				if gotViews[i-1].Fingerprint >= gotViews[i].Fingerprint {
					t.Fatalf("merged views out of order at %d", i)
				}
			}
			hints := []SelectHint{NoClamp(matchers), {Matchers: all, MinT: 2000, MaxT: 7000}}
			if !reflect.DeepEqual(sh.SelectBatch(hints), single.SelectBatch(hints)) {
				t.Fatal("SelectBatch mismatch")
			}
			if !reflect.DeepEqual(sh.LabelValues("instance"), single.LabelValues("instance")) {
				t.Fatal("LabelValues mismatch")
			}
			if !reflect.DeepEqual(sh.MetricNames(), single.MetricNames()) {
				t.Fatal("MetricNames mismatch")
			}
			if !reflect.DeepEqual(sh.AllSeries(), single.AllSeries()) {
				t.Fatal("AllSeries mismatch")
			}
			gotLo, gotHi, gotOK := sh.MetricTimeRange("metric_1")
			wantLo, wantHi, wantOK := single.MetricTimeRange("metric_1")
			if gotLo != wantLo || gotHi != wantHi || gotOK != wantOK {
				t.Fatal("MetricTimeRange mismatch")
			}
			if sh.HeadTime() != single.HeadTime() {
				t.Fatal("HeadTime mismatch")
			}
			gs, ws := sh.Stats(), single.Stats()
			if gs.Series != ws.Series || gs.Samples != ws.Samples {
				t.Fatalf("Stats mismatch: %+v vs %+v", gs, ws)
			}
		})
	}
}

func TestShardedBatchSharesDecode(t *testing.T) {
	_, sharded := shardedFixture(t)
	sh := sharded[4]
	hints := []SelectHint{NoClamp([]*Matcher{MustMatcher(MatchRegexp, MetricNameLabel, "metric_.*")})}
	merged, perShard := sh.SelectBatchShards(hints)
	total := 0
	for s := range perShard {
		total += len(perShard[s][0])
		for i := 1; i < len(perShard[s][0]); i++ {
			if perShard[s][0][i-1].Fingerprint >= perShard[s][0][i].Fingerprint {
				t.Fatalf("shard %d views out of order", s)
			}
		}
	}
	if total != len(merged[0]) {
		t.Fatalf("per-shard views (%d) != merged views (%d)", total, len(merged[0]))
	}
}

func TestReshardAndGatherRoundTrip(t *testing.T) {
	single, _ := shardedFixture(t)
	re := Reshard(single, 4)
	if !reflect.DeepEqual(re.AllSeries(), single.AllSeries()) {
		t.Fatal("Reshard changed the series set")
	}
	back := re.Gather()
	if !reflect.DeepEqual(back.AllSeries(), single.AllSeries()) {
		t.Fatal("Gather changed the series set")
	}
}

func TestShardedTruncate(t *testing.T) {
	single, sharded := shardedFixture(t)
	sh := sharded[4]
	if got, want := sh.Truncate(5000), single.Truncate(5000); got != want {
		t.Fatalf("Truncate dropped %d, single dropped %d", got, want)
	}
	if !reflect.DeepEqual(sh.AllSeries(), single.AllSeries()) {
		t.Fatal("post-truncate series sets differ")
	}
}
