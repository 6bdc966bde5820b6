package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.N() != 0 || r.Mean() != 0 || r.Stddev() != 0 || r.Sum() != 0 {
		t.Fatalf("zero-value Running not empty: %+v", r)
	}
}

func TestRunningSingle(t *testing.T) {
	var r Running
	r.Add(42)
	if r.N() != 1 || r.Mean() != 42 || r.Min() != 42 || r.Max() != 42 {
		t.Fatalf("got n=%d mean=%v min=%v max=%v", r.N(), r.Mean(), r.Min(), r.Max())
	}
	if r.Variance() != 0 {
		t.Fatalf("single-observation variance = %v, want 0", r.Variance())
	}
}

func TestRunningMoments(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.Mean() != 5 {
		t.Errorf("mean = %v, want 5", r.Mean())
	}
	if !almostEqual(r.Stddev(), 2, 1e-12) {
		t.Errorf("stddev = %v, want 2", r.Stddev())
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("min/max = %v/%v, want 2/9", r.Min(), r.Max())
	}
	if !almostEqual(r.Sum(), 40, 1e-9) {
		t.Errorf("sum = %v, want 40", r.Sum())
	}
	if !almostEqual(r.RelStddev(), 0.4, 1e-12) {
		t.Errorf("relstddev = %v, want 0.4", r.RelStddev())
	}
}

func TestRunningMerge(t *testing.T) {
	xs := []float64{1, 2, 3, 10, 20, 30, -5, 0.5}
	var whole Running
	for _, x := range xs {
		whole.Add(x)
	}
	var a, b Running
	for i, x := range xs {
		if i < 3 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.N() != whole.N() {
		t.Fatalf("merged n = %d, want %d", a.N(), whole.N())
	}
	if !almostEqual(a.Mean(), whole.Mean(), 1e-9) {
		t.Errorf("merged mean = %v, want %v", a.Mean(), whole.Mean())
	}
	if !almostEqual(a.Variance(), whole.Variance(), 1e-9) {
		t.Errorf("merged variance = %v, want %v", a.Variance(), whole.Variance())
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Errorf("merged min/max = %v/%v, want %v/%v", a.Min(), a.Max(), whole.Min(), whole.Max())
	}
}

func TestRunningMergeEmpty(t *testing.T) {
	var a, b Running
	a.Add(5)
	a.Merge(&b) // merging empty is a no-op
	if a.N() != 1 || a.Mean() != 5 {
		t.Fatalf("merge with empty changed accumulator: %+v", a)
	}
	var c Running
	c.Merge(&a) // merging into empty copies
	if c.N() != 1 || c.Mean() != 5 {
		t.Fatalf("merge into empty did not copy: %+v", c)
	}
}

func TestRunningMergeMatchesSequential(t *testing.T) {
	f := func(xs, ys []float64) bool {
		var whole, a, b Running
		for _, x := range xs {
			x = math.Mod(x, 1e6) // keep magnitudes sane
			whole.Add(x)
			a.Add(x)
		}
		for _, y := range ys {
			y = math.Mod(y, 1e6)
			whole.Add(y)
			b.Add(y)
		}
		a.Merge(&b)
		if a.N() != whole.N() {
			return false
		}
		if whole.N() == 0 {
			return true
		}
		return almostEqual(a.Mean(), whole.Mean(), 1e-6*(1+math.Abs(whole.Mean()))) &&
			almostEqual(a.Variance(), whole.Variance(), 1e-4*(1+whole.Variance()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDF(t *testing.T) {
	var c CDF
	for _, v := range []float64{5, 1, 3, 2, 4} {
		c.Add(v)
	}
	if c.N() != 5 {
		t.Fatalf("n = %d", c.N())
	}
	if got := c.At(3); !almostEqual(got, 0.6, 1e-12) {
		t.Errorf("At(3) = %v, want 0.6", got)
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v, want 0", got)
	}
	if got := c.At(10); got != 1 {
		t.Errorf("At(10) = %v, want 1", got)
	}
	if got := c.Median(); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := c.Percentile(0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := c.Percentile(100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.At(1) != 0 || c.Percentile(50) != 0 {
		t.Fatal("empty CDF should report zeros")
	}
}

func TestCDFPercentileMonotonic(t *testing.T) {
	f := func(vals []float64) bool {
		var c CDF
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			c.Add(v)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			q := c.Percentile(p)
			if c.N() > 0 && q < prev {
				return false
			}
			if c.N() > 0 {
				prev = q
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCDFPercentileSelection holds Percentile, which selects in a
// scratch copy, to nearest rank on a sorted copy, over tie-heavy
// samples in several shapes. Percentile must leave the samples as they
// were, and At must still work afterwards.
func TestCDFPercentileSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	ps := []float64{0, 0.001, 50, 90, 99, 100}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(3000)
		distinct := []int{1, 2, 3, 10, 1000}[rng.Intn(5)]
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(distinct))
			if rng.Intn(500) == 0 {
				vals[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			}
		}
		switch trial % 4 {
		case 1:
			sort.Float64s(vals)
		case 2:
			sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
		}
		var c CDF
		c.AddSamples(vals)
		sorted := slices.Clone(vals)
		sort.Float64s(sorted)
		checkRanks := func(when string) {
			for _, p := range ps {
				rank := int(math.Ceil(p / 100 * float64(n)))
				want := sorted[min(max(rank, 1), n)-1]
				if got := c.Percentile(p); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d (n %d, %d distinct), %s: Percentile(%v) = %v, want %v", trial, n, distinct, when, p, got, want)
				}
			}
		}
		checkRanks("unsorted")
		if !slices.EqualFunc(c.Samples(), vals, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			t.Fatalf("trial %d: Percentile reordered the samples", trial)
		}
		v := float64(rng.Intn(distinct))
		le := 0
		for _, x := range vals {
			if x <= v || math.IsNaN(x) { // NaN sorts first
				le++
			}
		}
		if got, want := c.At(v), float64(le)/float64(n); got != want {
			t.Fatalf("trial %d: At(%v) = %v after Percentile, want %v", trial, v, got, want)
		}
		checkRanks("sorted by At")
	}
}

// BenchmarkCDFPercentile reads p50 and p90 from an unsorted CDF the
// size of a live block-life scrape's lifetimes.
func BenchmarkCDFPercentile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var c CDF
	for i := 0; i < 28000; i++ {
		c.Add(math.Round(rng.ExpFloat64()*3600) / 10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Percentile(50)
		c.Percentile(90)
	}
}

func TestTimeBuckets(t *testing.T) {
	b := NewTimeBuckets(3600, 60) // one hour of minute buckets
	if b.NumBuckets() != 60 {
		t.Fatalf("buckets = %d, want 60", b.NumBuckets())
	}
	b.Add(0, 1)
	b.Add(59.9, 1)
	b.Add(60, 5)
	b.Add(3599, 2)
	b.Add(-10, 1)   // clamps to first
	b.Add(1e9, 100) // clamps to last
	if b.Bucket(0) != 3 {
		t.Errorf("bucket 0 = %v, want 3", b.Bucket(0))
	}
	if b.Bucket(1) != 5 {
		t.Errorf("bucket 1 = %v, want 5", b.Bucket(1))
	}
	if b.Bucket(59) != 102 {
		t.Errorf("bucket 59 = %v, want 102", b.Bucket(59))
	}
	if b.Width() != 60 {
		t.Errorf("width = %v", b.Width())
	}
}

func TestTimeBucketsPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero width")
		}
	}()
	NewTimeBuckets(100, 0)
}

func TestRatio(t *testing.T) {
	num := NewTimeBuckets(300, 100)
	den := NewTimeBuckets(300, 100)
	num.Add(0, 6)
	den.Add(0, 2)
	num.Add(150, 5)
	// den bucket 1 left zero → ratio 0
	r := Ratio(num, den)
	if len(r) != 3 {
		t.Fatalf("len = %d", len(r))
	}
	if r[0] != 3 || r[1] != 0 || r[2] != 0 {
		t.Fatalf("ratio = %v", r)
	}
}
