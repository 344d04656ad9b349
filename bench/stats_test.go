package main

import (
	"math"
	"testing"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 7}, 1.8125, 5.25, 8.5},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{2, 2, 2, 8, 1}, 1.5, 2, 5},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); m != c.q2 {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestQuartilesLeaveInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	quartiles(xs)
	median(xs)
	percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input reordered to %v", xs)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0, 1}, {0.5, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{100_000, 99, 1000},
		{1000, 99, 10},
		{999, 90, 99}, // p99 would leave 9 beyond it
		{100, 90, 10},
		{99, 75, 24},
		{40, 75, 10},
		{39, 50, 19},
		{5, 50, 2}, // too few for any: the median, with its count
	} {
		p, beyond := tailPercentile(c.n)
		if p != c.p || beyond != c.beyond {
			t.Errorf("tailPercentile(%d) = p%v with %d beyond, want p%v with %d", c.n, p, beyond, c.p, c.beyond)
		}
		// The count is what really lies above the reported sample.
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v := percentile(xs, p)
		above := 0
		for _, x := range xs {
			if x > v {
				above++
			}
		}
		if above != beyond {
			t.Errorf("n=%d: %d samples above p%v, reported %d", c.n, above, p, beyond)
		}
	}
}
