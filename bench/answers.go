package main

import (
	"math"
	"math/rand"

	slicing "github.com/gossipkit/slicing"
)

// Answer-check batch sizes: enough to touch many answering nodes, small
// beside a trial's cycles.
const (
	checkSlices = 200
	checkTopK   = 20
)

// checkAnswers queries q in process and checks every answer: a slice
// answer's index must be the partition's slice of its rank, and every
// staleness bound must be a finite share of the rank domain. The bounds
// feed staleness_mean.
func checkAnswers(q slicing.SliceQuerier, part slicing.Partition, rng *rand.Rand, r *report) {
	for i := 0; i < checkSlices; i++ {
		attr := uniformAttrs.Lo + rng.Float64()*(uniformAttrs.Hi-uniformAttrs.Lo)
		ans, err := q.SliceOf(attr)
		r.ops++
		if err != nil {
			r.check(false, "SliceOf(%g): %v", attr, err)
			continue
		}
		checkSliceAnswer(ans, part, r)
	}
	for i := 0; i < checkTopK; i++ {
		frac := topKFrac(rng)
		ans, err := q.TopK(frac)
		r.ops++
		if err != nil {
			r.check(false, "TopK(%g): %v", frac, err)
			continue
		}
		checkTopKAnswer(ans, frac, r)
	}
}

// topKFrac draws the fraction of a top-k query.
func topKFrac(rng *rand.Rand) float64 { return 0.01 + 0.49*rng.Float64() }

func checkSliceAnswer(ans slicing.SliceAnswer, part slicing.Partition, r *report) {
	ok := ans.SliceIx == part.Index(ans.Rank) && validBound(ans.Staleness.Bound)
	r.check(ok, "SliceOf(%g) answered slice %d for rank %g (partition says %d), bound %g",
		ans.Attr, ans.SliceIx, ans.Rank, part.Index(ans.Rank), ans.Staleness.Bound)
	r.staleness = append(r.staleness, ans.Staleness.Bound)
}

func checkTopKAnswer(ans slicing.TopKAnswer, frac float64, r *report) {
	ok := ans.Frac == frac && !math.IsNaN(ans.AttrThreshold) && !math.IsInf(ans.AttrThreshold, 0) &&
		validBound(ans.Staleness.Bound)
	r.check(ok, "TopK(%g) answered frac %g, threshold %g, bound %g",
		frac, ans.Frac, ans.AttrThreshold, ans.Staleness.Bound)
	r.staleness = append(r.staleness, ans.Staleness.Bound)
}

// validBound reports whether a staleness bound is a finite share of the
// rank domain.
func validBound(b float64) bool { return b >= 0 && b <= 1 }
