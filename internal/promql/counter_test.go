package promql

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"dio/internal/tsdb"
)

// counterShapes are the counter histories TestCounterWindowsMatchOracle
// reads, as the value of sample i of instance k (one sample a second).
// With one sample a second, every sample is the first of some window of
// a step-1s query, so each reset below also lands exactly on a window's
// first sample, where it is outside the window's pairs.
var counterShapes = map[string]func(i, k int) float64{
	// One reset every 97+k samples, inside most windows that hold it.
	"reset": func(i, k int) float64 { return float64(i%(97+k)) * 3 },
	// Two resets two samples apart: ..., 60+k, 0, 1, 0, 1, 2, ...
	"two_resets": func(i, k int) float64 {
		j, r := i%200, 60+k
		switch {
		case j < r:
			return float64(j)
		case j < r+2:
			return float64(j - r)
		}
		return float64(j - r - 2)
	},
	// Equal neighbours, NaN (whose comparisons are all false) and
	// negative values.
	"flat_nan_neg": func(i, k int) float64 {
		cycle := []float64{5, 5, 5, math.NaN(), 7, -3, -1, -1, 2, math.NaN(), math.NaN(), 4, 4}
		return cycle[(i+k)%len(cycle)]
	},
	// Steps of +0.3, summed in float64, with a reset every 150+k
	// samples: the form of the delta decides the last bits.
	"frac": func(i, k int) float64 {
		v := 0.0
		for j := 0; j <= i%(150+k); j++ {
			v += 0.3
		}
		return v
	},
}

// counterShapesDB holds every counter shape for 8 instances, over
// seconds samples from base.
func counterShapesDB(t testing.TB, base time.Time, seconds int) *tsdb.DB {
	t.Helper()
	db := tsdb.New()
	for shape, value := range counterShapes {
		for k := 0; k < 8; k++ {
			ls := tsdb.FromMap(map[string]string{"__name__": "c_total", "shape": shape, "instance": fmt.Sprintf("i%d", k)})
			for i := 0; i < seconds; i++ {
				if err := db.Append(ls, base.Add(time.Duration(i)*time.Second).UnixMilli(), value(i, k)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return db
}

// TestCounterWindowsMatchOracle runs rate and increase over counters
// with resets inside windows, at windows' first samples and two to a
// window, and over equal, NaN, negative and fractional values: with
// range ≥ step (overlapping windows) and range < step (gaps between
// them). The executor must render each byte-identically to the oracle.
func TestCounterWindowsMatchOracle(t *testing.T) {
	base := time.Date(2026, 7, 6, 10, 0, 0, 0, time.UTC)
	db := counterShapesDB(t, base, 3200)
	fine := rangeWindow{"step=1s", base.Add(10 * time.Second), base.Add(1039 * time.Second), time.Second}
	coarse := rangeWindow{"step=3s", base.Add(11 * time.Second), base.Add(3098 * time.Second), 3 * time.Second}
	eng := NewEngine(db, DefaultEngineOptions())
	for _, c := range []struct {
		q string
		w rangeWindow
	}{
		{"rate(c_total[1m])", fine},
		{"increase(c_total[4s])", fine},
		{"rate(c_total[2s])", coarse},
		{"increase(c_total[2s])", coarse},
	} {
		want, err := oracleQueryRange(context.Background(), eng, c.q, c.w.start, c.w.end, c.w.step)
		if err != nil {
			t.Fatal(err)
		}
		got, err := queryRange(context.Background(), eng, c.q, c.w.start, c.w.end, c.w.step)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%s %q: executor and oracle differ", c.w.name, c.q)
		}
	}
}

// TestIncreaseIsLastMinusFirst: over 0.3, 0.6, …, 1.8 with no gap to
// either window edge, increase is last − first, 1.8 − 0.3 = 1.5 exactly,
// as Prometheus 3.x's extrapolatedRate computes it. Summing the five
// increments instead rounds to 1.5000000000000002.
func TestIncreaseIsLastMinusFirst(t *testing.T) {
	var s []tsdb.Sample
	for i, v := range []float64{0.3, 0.6, 0.9, 1.2, 1.5, 1.8} {
		s = append(s, tsdb.Sample{T: int64(i) * 1000, V: v})
	}
	v, ok, err := rangeSeriesValue(nil, "increase", s, s[0].T, s[len(s)-1].T, s[len(s)-1].T, 0)
	if err != nil || !ok || v != 1.5 {
		t.Fatalf("increase = %v, %v, %v; want exactly 1.5", v, ok, err)
	}
}
