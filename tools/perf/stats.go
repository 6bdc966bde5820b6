package main

import (
	"math"
	"sort"
)

// median reports the middle of xs (mean of the middle two when even),
// 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles reports the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the acceptance check of this benchmark uses. With fewer than two
// values both quartiles are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// Position i*(n+1)/4, 1-based, clamped into the sample.
		n := len(s)
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the quartile distance as a share of the median: the
// steadiness figure every bound is compared with.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// cdfPoint is one bucket of an nfsbench latency CDF: Count operations
// took at most LeUs microseconds and more than the previous point's.
type cdfPoint struct {
	LeUs  float64 `json:"le_us"`
	Count int64   `json:"count"`
}

// bucketRatio is the width of nfsbench's log buckets, 8 per octave.
var bucketRatio = math.Exp2(1.0 / 8)

// cdfPercentile reports the p-th percentile (0..100) of a bucketed
// latency CDF in microseconds, interpolating linearly inside the bucket
// that holds the rank. The raw buckets are 9% wide, so reporting their
// upper bounds would quantize past any useful regression bound.
func cdfPercentile(cdf []cdfPoint, p float64) float64 {
	var n int64
	for _, pt := range cdf {
		n += pt.Count
	}
	if n == 0 {
		return 0
	}
	rank := p / 100 * float64(n)
	var cum float64
	for i, pt := range cdf {
		c := float64(pt.Count)
		if cum+c >= rank && pt.Count > 0 {
			lower := pt.LeUs / bucketRatio
			if i > 0 {
				lower = cdf[i-1].LeUs
			}
			return lower + (pt.LeUs-lower)*(rank-cum)/c
		}
		cum += c
	}
	return cdf[len(cdf)-1].LeUs
}
