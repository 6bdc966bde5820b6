package stats

import (
	"math"
	"sync"
	"testing"
)

// TestCDFPercentileKnown pins nearest-rank percentiles on an explicit
// sample set: values 1..100 make the p-th percentile exactly p.
func TestCDFPercentileKnown(t *testing.T) {
	var c CDF
	// Insert in a scrambled order to exercise the lazy sort.
	for i := 0; i < 100; i++ {
		c.Add(float64((i*37)%100 + 1))
	}
	for _, p := range []float64{1, 10, 25, 50, 75, 90, 99, 100} {
		if got := c.Percentile(p); got != p {
			t.Errorf("Percentile(%v) = %v, want %v", p, got, p)
		}
	}
	if got := c.Median(); got != 50 {
		t.Errorf("Median = %v, want 50", got)
	}
	if got := c.Percentile(0); got != 1 {
		t.Errorf("Percentile(0) = %v, want 1", got)
	}
	var empty CDF
	if got := empty.Percentile(50); got != 0 {
		t.Errorf("empty Percentile = %v, want 0", got)
	}
}

// TestCDFMergeEquivalence checks that percentiles over a merged CDF
// equal those over the union added to a single CDF.
func TestCDFMergeEquivalence(t *testing.T) {
	var single CDF
	shards := make([]*CDF, 4)
	for i := range shards {
		shards[i] = &CDF{}
	}
	for i := 0; i < 1000; i++ {
		v := math.Pow(1.01, float64(i%700)) // skewed, repeating values
		single.Add(v)
		shards[i%4].Add(v)
	}
	var merged CDF
	for _, s := range shards {
		merged.Merge(s)
	}
	if merged.N() != single.N() {
		t.Fatalf("merged N = %d, want %d", merged.N(), single.N())
	}
	for p := 0.0; p <= 100; p += 0.5 {
		if merged.Percentile(p) != single.Percentile(p) {
			t.Fatalf("Percentile(%v): merged %v != single %v",
				p, merged.Percentile(p), single.Percentile(p))
		}
	}
}

// maxLatErr is the histogram's bucket-width error bound, 2^(1/8)-1.
var maxLatErr = math.Exp2(1.0/latSubPerOctave) - 1

// checkPercentile asserts the histogram percentile is within the
// bucket-resolution error of the analytic value.
func checkPercentile(t *testing.T, h *LatencyHist, p, want float64) {
	t.Helper()
	got := h.Percentile(p)
	if rel := math.Abs(got-want) / want; rel > maxLatErr+1e-9 {
		t.Errorf("Percentile(%v) = %v, want %v ±%.1f%% (off %.1f%%)",
			p, got, want, maxLatErr*100, rel*100)
	}
}

// TestLatencyHistUniform validates percentiles against the closed-form
// quantiles of a uniform (0,1] distribution sampled on an even grid.
func TestLatencyHistUniform(t *testing.T) {
	var h LatencyHist
	const n = 100000
	for i := 0; i < n; i++ {
		h.Add(float64(i+1) / n)
	}
	if h.Count() != n {
		t.Fatalf("Count = %d, want %d", h.Count(), n)
	}
	for _, p := range []float64{10, 50, 90, 99, 99.9} {
		checkPercentile(t, &h, p, p/100)
	}
	if mean := h.Mean(); math.Abs(mean-0.500005) > 1e-9 {
		t.Errorf("Mean = %v, want 0.500005 (exact)", mean)
	}
	if h.Min() != 1.0/n || h.Max() != 1 {
		t.Errorf("Min/Max = %v/%v, want %v/1", h.Min(), h.Max(), 1.0/n)
	}
	if got := h.Percentile(0); got != h.Min() {
		t.Errorf("Percentile(0) = %v, want min %v", got, h.Min())
	}
	if got := h.Percentile(100); got != h.Max() {
		t.Errorf("Percentile(100) = %v, want max %v", got, h.Max())
	}
}

// TestLatencyHistExponential does the same for Exp(mean=2ms), the shape
// real RPC latency tails take, via the inverse CDF on an even grid.
func TestLatencyHistExponential(t *testing.T) {
	var h LatencyHist
	const n = 100000
	const mean = 0.002
	for i := 0; i < n; i++ {
		u := (float64(i) + 0.5) / n
		h.Add(-mean * math.Log(1-u))
	}
	for _, p := range []float64{50, 90, 99, 99.9} {
		want := -mean * math.Log(1-p/100)
		checkPercentile(t, &h, p, want)
	}
}

// TestLatencyHistMergeEquivalence: merging per-shard histograms must
// reproduce the single-shard histogram exactly — counts, sum, extremes,
// every percentile, and the CDF dump.
func TestLatencyHistMergeEquivalence(t *testing.T) {
	var single LatencyHist
	shards := make([]*LatencyHist, 5)
	for i := range shards {
		shards[i] = &LatencyHist{}
	}
	for i := 0; i < 20000; i++ {
		u := (float64(i) + 0.5) / 20000
		v := 0.0001 * math.Pow(1000, u) // log-uniform 100µs..100ms
		single.Add(v)
		shards[i%5].Add(v)
	}
	var merged LatencyHist
	for _, s := range shards {
		merged.Merge(s)
	}
	if merged.Count() != single.Count() {
		t.Fatalf("merged count %d, want %d", merged.Count(), single.Count())
	}
	// Sums are added in different orders, so allow float rounding slack.
	if math.Abs(merged.Sum()-single.Sum()) > 1e-9*single.Sum() {
		t.Fatalf("merged sum %v, want %v", merged.Sum(), single.Sum())
	}
	if merged.Min() != single.Min() || merged.Max() != single.Max() {
		t.Fatalf("merged min/max differ")
	}
	for p := 0.0; p <= 100; p += 0.1 {
		if merged.Percentile(p) != single.Percentile(p) {
			t.Fatalf("Percentile(%v): merged %v != single %v",
				p, merged.Percentile(p), single.Percentile(p))
		}
	}
	mc, sc := merged.CDF(), single.CDF()
	if len(mc) != len(sc) {
		t.Fatalf("CDF length %d != %d", len(mc), len(sc))
	}
	for i := range mc {
		if mc[i] != sc[i] {
			t.Fatalf("CDF[%d]: %+v != %+v", i, mc[i], sc[i])
		}
	}
	if last := mc[len(mc)-1]; last.Cum != 1 {
		t.Fatalf("CDF tail Cum = %v, want 1", last.Cum)
	}
}

// TestLatencyHistEdges covers non-positive and out-of-range values.
func TestLatencyHistEdges(t *testing.T) {
	var h LatencyHist
	h.Add(0)
	h.Add(-1)
	h.Add(1e-12) // below the first bucket
	h.Add(1e6)   // above the last bucket
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4", h.Count())
	}
	if h.Max() != 1e6 || h.Min() != -1 {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	// Percentiles stay inside the observed range even for clamped buckets.
	if p := h.Percentile(99.9); p > h.Max() {
		t.Fatalf("Percentile(99.9) = %v beyond max", p)
	}
	var empty LatencyHist
	if empty.Percentile(50) != 0 || empty.Mean() != 0 || empty.CDF() != nil {
		t.Fatal("empty histogram should report zeros")
	}
}

// TestCollectorConcurrent hammers a Collector from many goroutines and
// checks the merged totals equal the serial reference, and that the
// collector passes the race detector.
func TestCollectorConcurrent(t *testing.T) {
	col := NewCollector()
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		shard := col.Shard()
		wg.Add(1)
		go func(w int, s *LatencyShard) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				class := OpClass(i % int(NumOpClasses))
				if i%100 == 99 {
					s.RecordError(class)
					continue
				}
				s.Record(class, float64(w+1)*1e-4+float64(i)*1e-8)
			}
		}(w, shard)
	}
	wg.Wait()

	var serial LatencyHist
	var wantErrs int64
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			if i%100 == 99 {
				wantErrs++
				continue
			}
			serial.Add(float64(w+1)*1e-4 + float64(i)*1e-8)
		}
	}
	total := col.Total()
	if total.Count() != serial.Count() || total.Sum() != serial.Sum() {
		t.Fatalf("total count/sum %d/%v, want %d/%v",
			total.Count(), total.Sum(), serial.Count(), serial.Sum())
	}
	for _, p := range []float64{50, 90, 99, 99.9} {
		if total.Percentile(p) != serial.Percentile(p) {
			t.Fatalf("Percentile(%v): collector %v != serial %v",
				p, total.Percentile(p), serial.Percentile(p))
		}
	}
	if got := col.TotalErrors(); got != wantErrs {
		t.Fatalf("TotalErrors = %d, want %d", got, wantErrs)
	}
	var classSum int64
	for class := OpClass(0); class < NumOpClasses; class++ {
		classSum += col.Class(class).Count()
	}
	if classSum != total.Count() {
		t.Fatalf("per-class counts sum to %d, want %d", classSum, total.Count())
	}
}
