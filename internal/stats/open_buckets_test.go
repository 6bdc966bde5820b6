package stats

import (
	"reflect"
	"testing"
)

// Tests for the open-ended TimeBuckets form and the CDF sample
// accessors that the state codec builds on: an open accumulator grows
// with the data, folds into the fixed form exactly as direct clamped
// Adds would have, and merges across the open/fixed boundary.

func TestOpenTimeBucketsGrowth(t *testing.T) {
	b := NewOpenTimeBuckets(3600)
	if !b.Open() {
		t.Fatalf("NewOpenTimeBuckets is not open")
	}
	if b.NumBuckets() != 0 {
		t.Fatalf("fresh open accumulator has %d buckets, want 0", b.NumBuckets())
	}
	b.Add(10, 1)
	b.Add(7200+5, 2) // third hour: grows to 3 buckets
	b.Add(-3, 4)     // negative clamps to bucket 0, as in the fixed form
	if got := b.NumBuckets(); got != 3 {
		t.Fatalf("open accumulator has %d buckets, want 3", got)
	}
	if want := []float64{5, 0, 2}; !reflect.DeepEqual(b.Values(), want) {
		t.Fatalf("open buckets = %v, want %v", b.Values(), want)
	}
}

func TestFixedTimeBucketsStillClamp(t *testing.T) {
	b := NewTimeBuckets(7200, 3600)
	if b.Open() {
		t.Fatalf("NewTimeBuckets is open")
	}
	b.Add(10, 1)
	b.Add(10*3600, 2) // past the span: clamps into the last bucket
	if want := []float64{1, 2}; !reflect.DeepEqual(b.Values(), want) {
		t.Fatalf("fixed buckets = %v, want %v", b.Values(), want)
	}
}

// TestOpenFixedEquivalence is the property the hourly analysis depends
// on: folding an open accumulator into a fixed span reproduces exactly
// what a fixed accumulator fed the same observations would hold.
func TestOpenFixedEquivalence(t *testing.T) {
	obs := []struct{ t, v float64 }{
		{5, 1}, {3601, 2}, {7300, 3}, {50000, 4}, {-2, 5}, {3599, 6},
	}
	open := NewOpenTimeBuckets(3600)
	fixed := NewTimeBuckets(7200, 3600)
	for _, o := range obs {
		open.Add(o.t, o.v)
		fixed.Add(o.t, o.v)
	}
	folded := open.Fixed(7200)
	if folded.Open() {
		t.Fatalf("Fixed returned an open accumulator")
	}
	if !reflect.DeepEqual(folded.Values(), fixed.Values()) {
		t.Fatalf("folded = %v, direct fixed = %v", folded.Values(), fixed.Values())
	}
}

func TestFoldBucketIntoEmptyFixed(t *testing.T) {
	// A bucketless fixed accumulator (zero value) must drop the fold,
	// not panic.
	b := &TimeBuckets{width: 3600}
	b.FoldBucket(3, 7)
	if b.NumBuckets() != 0 {
		t.Fatalf("empty fixed accumulator grew to %d buckets", b.NumBuckets())
	}
}

func TestOpenMerge(t *testing.T) {
	a := NewOpenTimeBuckets(3600)
	a.Add(10, 1)
	b := NewOpenTimeBuckets(3600)
	b.Add(7300, 2)
	a.Merge(b) // open accepts a longer open: grows
	if want := []float64{1, 0, 2}; !reflect.DeepEqual(a.Values(), want) {
		t.Fatalf("open merge = %v, want %v", a.Values(), want)
	}

	f := NewTimeBuckets(7200, 3600)
	f.Add(100, 5)
	a.Merge(f) // and a shorter fixed one
	if want := []float64{6, 0, 2}; !reflect.DeepEqual(a.Values(), want) {
		t.Fatalf("open+fixed merge = %v, want %v", a.Values(), want)
	}
}

func TestMergeWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("merging mismatched widths did not panic")
		}
	}()
	a := NewOpenTimeBuckets(3600)
	b := NewOpenTimeBuckets(1800)
	a.Merge(b)
}

func TestInvalidOpenWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("zero width did not panic")
		}
	}()
	NewOpenTimeBuckets(0)
}

func TestCDFSamplesRoundTrip(t *testing.T) {
	c := &CDF{}
	c.Add(3)
	c.Add(1)
	c.Add(2)
	cp := &CDF{}
	cp.AddSamples(c.Samples())
	cp.AddSamples(nil) // no-op
	if cp.N() != 3 {
		t.Fatalf("rebuilt CDF has %d samples, want 3", cp.N())
	}
	for _, p := range []float64{10, 50, 90} {
		if got, want := cp.Percentile(p), c.Percentile(p); got != want {
			t.Fatalf("p%v = %v after round trip, want %v", p, got, want)
		}
	}
	// Samples must reflect appends made after a previous call.
	c.Add(10)
	if got := len(c.Samples()); got != 4 {
		t.Fatalf("Samples sees %d samples after Add, want 4", got)
	}
}
