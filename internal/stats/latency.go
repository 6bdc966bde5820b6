// Latency collection for the load harness: log-bucketed histograms with
// sub-octave resolution (8 buckets per power of two, ≤9% relative
// error at any percentile), plus a sharded concurrency-safe collector
// so T×c benchmark workers record without contending on shared state.
// Shards merge exactly, in the same shard/merge style as the pipeline
// reducers.
package stats

import (
	"math"
	"sync"
)

// Latency histogram layout: bucket i covers latencies (in seconds) in
// [2^((i+latMinIndex)/latSubPerOctave), 2^((i+1+latMinIndex)/latSubPerOctave)),
// spanning ~60ns to 256s. The layout is fixed so any two LatencyHists
// merge bucket-for-bucket.
const (
	latSubPerOctave = 8
	latMinExp       = -24 // 2^-24 s ≈ 60 ns
	latMaxExp       = 8   // 2^8 s = 256 s
	latMinIndex     = latMinExp * latSubPerOctave
	latNumBuckets   = (latMaxExp - latMinExp) * latSubPerOctave
)

// LatencyHist is a fixed-layout logarithmic latency histogram. Like the
// other accumulators in this package it is a plain struct: one owner
// updates it; Collector provides the concurrency-safe wrapper.
type LatencyHist struct {
	counts [latNumBuckets]int64
	n      int64
	sum    float64
	min    float64
	max    float64
}

// latBucket maps a latency in seconds to its bucket index.
func latBucket(v float64) int {
	if v <= 0 {
		return 0
	}
	i := int(math.Floor(math.Log2(v)*latSubPerOctave)) - latMinIndex
	if i < 0 {
		return 0
	}
	if i >= latNumBuckets {
		return latNumBuckets - 1
	}
	return i
}

// latUpper reports the upper bound (seconds) of bucket i.
func latUpper(i int) float64 {
	return math.Exp2(float64(i+1+latMinIndex) / latSubPerOctave)
}

// Add records one latency observation in seconds.
func (h *LatencyHist) Add(seconds float64) {
	h.counts[latBucket(seconds)]++
	h.n++
	h.sum += seconds
	if h.n == 1 {
		h.min, h.max = seconds, seconds
		return
	}
	if seconds < h.min {
		h.min = seconds
	}
	if seconds > h.max {
		h.max = seconds
	}
}

// Count reports the number of observations.
func (h *LatencyHist) Count() int64 { return h.n }

// Sum reports the total of all observations in seconds.
func (h *LatencyHist) Sum() float64 { return h.sum }

// Mean reports the exact arithmetic mean (tracked outside the buckets).
func (h *LatencyHist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min reports the smallest observation, or 0 if empty.
func (h *LatencyHist) Min() float64 { return h.min }

// Max reports the largest observation, or 0 if empty.
func (h *LatencyHist) Max() float64 { return h.max }

// Merge folds other into h, as if every observation added to other had
// been added to h. Bucket counts merge exactly.
func (h *LatencyHist) Merge(other *LatencyHist) {
	if other == nil || other.n == 0 {
		return
	}
	if h.n == 0 {
		*h = *other
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.n += other.n
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Percentile reports the p-th percentile (p in [0,100]) by nearest rank
// over the buckets, returning the containing bucket's upper bound
// clamped to the observed min/max. Relative error is bounded by the
// bucket width, 2^(1/8)-1 ≈ 9%.
func (h *LatencyHist) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := int64(math.Ceil(p / 100 * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := latUpper(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// HistPoint is one step of a latency CDF dump: the fraction of
// observations at most Upper seconds.
type HistPoint struct {
	Upper float64 // bucket upper bound, seconds
	Count int64   // observations in this bucket
	Cum   float64 // cumulative fraction ≤ Upper
}

// CDF dumps the non-empty span of the histogram as cumulative points,
// from the first occupied bucket through the last.
func (h *LatencyHist) CDF() []HistPoint {
	if h.n == 0 {
		return nil
	}
	first, last := -1, 0
	for i, c := range h.counts {
		if c > 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	pts := make([]HistPoint, 0, last-first+1)
	var cum int64
	for i := first; i <= last; i++ {
		cum += h.counts[i]
		pts = append(pts, HistPoint{
			Upper: latUpper(i),
			Count: h.counts[i],
			Cum:   float64(cum) / float64(h.n),
		})
	}
	return pts
}

// OpClass partitions benchmark operations for latency accounting.
type OpClass uint8

// Operation classes.
const (
	OpRead OpClass = iota
	OpWrite
	OpMeta
	NumOpClasses
)

// String names the class for reports.
func (c OpClass) String() string {
	switch c {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpMeta:
		return "meta"
	}
	return "unknown"
}

// Collector aggregates latency observations from many concurrent
// workers. Each worker owns a LatencyShard (cheap, uncontended mutex);
// totals are computed by merging shards, so collection is exact — the
// merged histogram equals the one a single serial observer would have
// built.
type Collector struct {
	mu     sync.Mutex
	shards []*LatencyShard
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Shard registers and returns a new shard for one worker.
func (c *Collector) Shard() *LatencyShard {
	s := &LatencyShard{}
	c.mu.Lock()
	c.shards = append(c.shards, s)
	c.mu.Unlock()
	return s
}

// LatencyShard is one worker's private slice of a Collector.
type LatencyShard struct {
	mu   sync.Mutex
	hist [NumOpClasses]LatencyHist
	errs [NumOpClasses]int64
}

// Record folds one successful operation's latency into the shard.
func (s *LatencyShard) Record(class OpClass, seconds float64) {
	s.mu.Lock()
	s.hist[class].Add(seconds)
	s.mu.Unlock()
}

// RecordError counts one failed operation.
func (s *LatencyShard) RecordError(class OpClass) {
	s.mu.Lock()
	s.errs[class]++
	s.mu.Unlock()
}

// Class merges every shard's histogram for one class into a snapshot.
func (c *Collector) Class(class OpClass) *LatencyHist {
	out := &LatencyHist{}
	c.mu.Lock()
	shards := c.shards
	c.mu.Unlock()
	for _, s := range shards {
		s.mu.Lock()
		out.Merge(&s.hist[class])
		s.mu.Unlock()
	}
	return out
}

// Total merges every shard and class into one histogram.
func (c *Collector) Total() *LatencyHist {
	out := &LatencyHist{}
	for class := OpClass(0); class < NumOpClasses; class++ {
		out.Merge(c.Class(class))
	}
	return out
}

// Errors reports the error count for one class across all shards.
func (c *Collector) Errors(class OpClass) int64 {
	var n int64
	c.mu.Lock()
	shards := c.shards
	c.mu.Unlock()
	for _, s := range shards {
		s.mu.Lock()
		n += s.errs[class]
		s.mu.Unlock()
	}
	return n
}

// TotalErrors reports the error count across all classes and shards.
func (c *Collector) TotalErrors() int64 {
	var n int64
	for class := OpClass(0); class < NumOpClasses; class++ {
		n += c.Errors(class)
	}
	return n
}
