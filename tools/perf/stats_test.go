package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{7}, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread(nil); got != 0 {
		t.Errorf("spread of nothing = %v, want 0", got)
	}
}

func TestCDFPercentileInterpolates(t *testing.T) {
	// Three adjacent buckets: (80,100], (100,120], (120,140] with 10, 80
	// and 10 operations.
	cdf := []cdfPoint{{100, 10}, {120, 80}, {140, 10}}
	cases := []struct{ p, want float64 }{
		{50, 110},                          // rank 50: 40 of 80 into the second bucket
		{10, 100},                          // exactly the top of the first bucket
		{90, 120},                          // exactly the top of the second
		{99, 138},                          // 9 of 10 into the last
		{5, 100 - (100-100/bucketRatio)/2}, // half-way into the first bucket, whose floor is one bucket ratio down
	}
	for _, c := range cases {
		if got := cdfPercentile(cdf, c.p); !near(got, c.want) {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	// Empty buckets inside the span carry no rank.
	gap := []cdfPoint{{100, 50}, {120, 0}, {140, 50}}
	if got := cdfPercentile(gap, 75); !near(got, 130) {
		t.Errorf("p75 across an empty bucket = %v, want 130", got)
	}
	if got := cdfPercentile(nil, 50); got != 0 {
		t.Errorf("p50 of an empty CDF = %v, want 0", got)
	}
}
