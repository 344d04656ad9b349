package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), as Python's statistics.median computes it. NaN
// for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, the median and the third
// quartile of xs by the method of Python's statistics.quantiles(xs,
// n=4) (the default "exclusive" method), so that spreads computed here
// agree with those computed by any Python tooling over the same values.
// A sample of one value has that value for every quartile.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// percentile is the nearest-rank p-th percentile of xs: the smallest
// sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the 0-based index of the nearest-rank p-th percentile of
// n sorted samples.
func rankIndex(n int, p float64) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	return max(0, min(k, n)-1)
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99, 90, 75, 50}

// minBeyond is how many samples must lie above a reported percentile
// for it to mean anything.
const minBeyond = 10

// tailPercentile is the highest percentile on tailLadder that has at
// least minBeyond of n samples strictly beyond its nearest rank, and how
// many samples lie beyond it. With fewer than 2·minBeyond samples no
// percentile qualifies and it reports the median with what lies beyond
// it.
func tailPercentile(n int) (p float64, beyond int) {
	for _, p := range tailLadder {
		if b := n - 1 - rankIndex(n, p); b >= minBeyond {
			return p, b
		}
	}
	return 50, n - 1 - rankIndex(n, 50)
}

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
