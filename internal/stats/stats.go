// Package stats provides the small statistical toolkit used by the trace
// analyses: running moments, percentiles, linear and logarithmic
// histograms, cumulative distributions, and fixed-width time-bucket
// accumulators.
//
// Everything here is deterministic and allocation-conscious: analyses run
// over tens of millions of trace records, so the accumulators are plain
// structs updated in place.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Running accumulates count, mean, and variance online using Welford's
// algorithm. The zero value is an empty accumulator ready for use.
type Running struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N reports the number of observations added.
func (r *Running) N() int64 { return r.n }

// Mean reports the arithmetic mean, or 0 if no observations were added.
func (r *Running) Mean() float64 { return r.mean }

// Min reports the smallest observation, or 0 if none were added.
func (r *Running) Min() float64 { return r.min }

// Max reports the largest observation, or 0 if none were added.
func (r *Running) Max() float64 { return r.max }

// Sum reports mean*n, the total of all observations.
func (r *Running) Sum() float64 { return r.mean * float64(r.n) }

// Variance reports the population variance, or 0 with fewer than two
// observations.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// Stddev reports the population standard deviation.
func (r *Running) Stddev() float64 { return math.Sqrt(r.Variance()) }

// RelStddev reports the standard deviation as a fraction of the mean —
// the "percentage of the average" presentation used by Table 5 of the
// paper. It returns 0 when the mean is 0.
func (r *Running) RelStddev() float64 {
	if r.mean == 0 {
		return 0
	}
	return r.Stddev() / math.Abs(r.mean)
}

// Merge folds the observations of other into r, as if every observation
// added to other had been added to r.
func (r *Running) Merge(other *Running) {
	if other.n == 0 {
		return
	}
	if r.n == 0 {
		*r = *other
		return
	}
	n := r.n + other.n
	d := other.mean - r.mean
	mean := r.mean + d*float64(other.n)/float64(n)
	m2 := r.m2 + other.m2 + d*d*float64(r.n)*float64(other.n)/float64(n)
	min := r.min
	if other.min < min {
		min = other.min
	}
	max := r.max
	if other.max > max {
		max = other.max
	}
	*r = Running{n: n, mean: mean, m2: m2, min: min, max: max}
}

// CDF is a cumulative distribution built from explicit samples. It is
// collected unsorted; At sorts it lazily on first query, Percentile
// never reorders it.
type CDF struct {
	samples []float64
	sorted  bool
}

// Add records one sample.
func (c *CDF) Add(v float64) {
	c.samples = append(c.samples, v)
	c.sorted = false
}

// N reports the number of samples.
func (c *CDF) N() int { return len(c.samples) }

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// At reports the fraction of samples <= v.
func (c *CDF) At(v float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.sort()
	i := sort.SearchFloat64s(c.samples, v)
	// Move past equal values so At is "<= v".
	for i < len(c.samples) && c.samples[i] <= v {
		i++
	}
	return float64(i) / float64(len(c.samples))
}

// Merge folds the samples of other into c, as if every sample added to
// other had been added to c. Percentiles over the merged CDF are exact
// (sample multisets union), which is what lets the sharded pipeline
// reduce per-shard lifetime distributions without approximation.
func (c *CDF) Merge(other *CDF) {
	if other == nil || len(other.samples) == 0 {
		return
	}
	c.samples = append(c.samples, other.samples...)
	c.sorted = false
}

// Samples returns the raw sample slice (not a copy, possibly unsorted).
// It exists so the state codec can serialize a CDF without this package
// knowing about encodings; callers must not mutate the slice.
func (c *CDF) Samples() []float64 { return c.samples }

// AddSamples appends a batch of samples, the decode-side counterpart of
// Samples.
func (c *CDF) AddSamples(vs []float64) {
	if len(vs) == 0 {
		return
	}
	c.samples = append(c.samples, vs...)
	c.sorted = false
}

// Percentile reports the p-th percentile (p in [0,100]) using
// nearest-rank. It returns 0 for an empty CDF. On an unsorted CDF the
// rank is selected in a scratch copy in linear time, so the samples'
// order — and the state bytes coded from it — never depends on whether
// a percentile was read.
func (c *CDF) Percentile(p float64) float64 {
	n := len(c.samples)
	if n == 0 {
		return 0
	}
	k := 0 // the 0-based nearest rank
	switch {
	case p >= 100:
		k = n - 1
	case p > 0:
		k = max(int(math.Ceil(p/100*float64(n))), 1) - 1
	}
	if c.sorted {
		return c.samples[k]
	}
	return selectKth(slices.Clone(c.samples), k)
}

// lessFloat is sort.Float64s's order: NaN first, then ascending.
func lessFloat(a, b float64) bool { return a < b || (a != a && b == b) }

// selectKth partially orders s and returns the value sort.Float64s
// would put at index k: Hoare's FIND with median-of-three pivots, whose
// scans stop at values equal to the pivot, so ties split evenly. It
// sorts what is left of the range if the pivots keep choosing badly.
func selectKth(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	for budget := 2 * bits.Len(uint(len(s))); lo < hi; budget-- {
		if budget == 0 {
			sort.Float64s(s[lo : hi+1])
			break
		}
		x, y, z := s[lo], s[lo+(hi-lo)/2], s[hi]
		if lessFloat(y, x) {
			x, y = y, x
		}
		if lessFloat(z, y) {
			y = z
			if lessFloat(y, x) {
				y = x
			}
		}
		pivot := y
		i, j := lo, hi
		for i <= j {
			for lessFloat(s[i], pivot) {
				i++
			}
			for lessFloat(pivot, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// s[lo:j+1] <= pivot, s[i:hi+1] >= pivot, and anything
		// between equals it.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	return s[k]
}

// Median reports the 50th percentile.
func (c *CDF) Median() float64 { return c.Percentile(50) }

// TimeBuckets accumulates per-bucket counts over a time span, e.g.
// hourly operation counts over a week. Times are given in seconds from
// the start of the span. The span is either fixed at construction
// (NewTimeBuckets) or open-ended (NewOpenTimeBuckets), growing with the
// data; an open accumulator folds into the fixed form with Fixed.
type TimeBuckets struct {
	width   float64 // bucket width in seconds
	buckets []float64
	open    bool // buckets grow on demand instead of clamping
}

// NewTimeBuckets creates an accumulator covering span seconds with the
// given bucket width. Both must be positive; span is rounded up to a
// whole number of buckets.
func NewTimeBuckets(span, width float64) *TimeBuckets {
	if span <= 0 || width <= 0 {
		panic(fmt.Sprintf("stats: invalid time buckets span=%v width=%v", span, width))
	}
	n := int(math.Ceil(span / width))
	return &TimeBuckets{width: width, buckets: make([]float64, n)}
}

// NewOpenTimeBuckets creates an open-ended accumulator: the bucket list
// grows to cover whatever times are added. It is the form used when the
// span is only known after the stream ends (a partial analysis over one
// piece of a trace set); Fixed converts to the clamped fixed form once
// the span is known.
func NewOpenTimeBuckets(width float64) *TimeBuckets {
	if width <= 0 {
		panic(fmt.Sprintf("stats: invalid time bucket width=%v", width))
	}
	return &TimeBuckets{width: width, open: true}
}

// Open reports whether the accumulator grows instead of clamping.
func (b *TimeBuckets) Open() bool { return b.open }

// Add accumulates amount into the bucket containing time t (seconds from
// the start of the span). In the fixed form, out-of-range times are
// clamped to the first or last bucket so that boundary jitter never
// loses data; the open form grows instead.
func (b *TimeBuckets) Add(t, amount float64) {
	b.FoldBucket(int(t/b.width), amount)
}

// FoldBucket accumulates amount directly into bucket index i, with the
// same clamping (fixed form) or growth (open form) as Add. It is the
// decode-side primitive: bucket indexes are anchored at t=0, so folding
// an open accumulator's buckets into a fixed-span one reproduces
// exactly what adding the underlying observations would have.
func (b *TimeBuckets) FoldBucket(i int, amount float64) {
	if i < 0 {
		i = 0
	}
	if i >= len(b.buckets) {
		if !b.open {
			if len(b.buckets) == 0 {
				return
			}
			i = len(b.buckets) - 1
		} else {
			for len(b.buckets) <= i {
				b.buckets = append(b.buckets, 0)
			}
		}
	}
	b.buckets[i] += amount
}

// Fixed folds an accumulator into the fixed form covering span seconds:
// buckets past the end clamp-fold into the last one, exactly as a fixed
// accumulator would have clamped the original Adds.
func (b *TimeBuckets) Fixed(span float64) *TimeBuckets {
	out := NewTimeBuckets(span, b.width)
	for i, v := range b.buckets {
		if v != 0 {
			out.FoldBucket(i, v)
		}
	}
	return out
}

// NumBuckets reports the number of buckets.
func (b *TimeBuckets) NumBuckets() int { return len(b.buckets) }

// Bucket reports the accumulated amount in bucket i.
func (b *TimeBuckets) Bucket(i int) float64 { return b.buckets[i] }

// Width reports the bucket width in seconds.
func (b *TimeBuckets) Width() float64 { return b.width }

// Values returns the underlying bucket slice (not a copy).
func (b *TimeBuckets) Values() []float64 { return b.buckets }

// Merge adds other's buckets into b. Fixed accumulators must have been
// created with the same span and width; an open accumulator accepts any
// other with the same width, growing as needed. Because every amount
// added by the analyses is a whole number well below 2^53, float64
// addition here is exact and the merged totals are independent of shard
// order.
func (b *TimeBuckets) Merge(other *TimeBuckets) {
	if other.width != b.width || (!b.open && len(other.buckets) != len(b.buckets)) {
		panic(fmt.Sprintf("stats: merging mismatched time buckets (%v/%d vs %v/%d)",
			b.width, len(b.buckets), other.width, len(other.buckets)))
	}
	for i, v := range other.buckets {
		if v != 0 {
			b.FoldBucket(i, v)
		}
	}
}

// Ratio builds a per-bucket ratio series num[i]/den[i]; buckets where the
// denominator is zero yield 0.
func Ratio(num, den *TimeBuckets) []float64 {
	n := num.NumBuckets()
	if den.NumBuckets() < n {
		n = den.NumBuckets()
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		if den.buckets[i] != 0 {
			out[i] = num.buckets[i] / den.buckets[i]
		}
	}
	return out
}
