package pipeline

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
)

var (
	benchOnce sync.Once
	benchOps  []*core.Op
	benchSpan float64
)

func benchTrace(b *testing.B) ([]*core.Op, float64) {
	b.Helper()
	benchOnce.Do(func() {
		benchOps = genOps(b, 1)
		benchSpan = benchOps[len(benchOps)-1].T - benchOps[0].T
	})
	return benchOps, benchSpan
}

// BenchmarkEngine measures the full reducer suite over the CAMPUS
// generator workload at several worker counts. The per-iteration
// metric is analysis throughput in operations per second.
func BenchmarkEngine(b *testing.B) {
	ops, span := benchTrace(b)
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				set := newAnalyzerSet(span)
				RunSlice(Config{Workers: workers}, ops, set.analyzers()...)
			}
			b.StopTimer()
			b.ReportMetric(float64(len(ops))*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// perUnit times b.N passes over a trace of n records or operations and
// reports what one of them costs, in time and in allocations, rather
// than what a pass costs.
func perUnit(b *testing.B, unit string, n int, pass func()) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	total := float64(n) * float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/"+unit)
	b.ReportMetric(float64(ms.Mallocs-before)/total, "allocs/"+unit)
}

// BenchmarkRouter isolates the sequential routing stage.
func BenchmarkRouter(b *testing.B) {
	ops, _ := benchTrace(b)
	perUnit(b, "routed", len(ops), func() {
		rt := newRouter(8)
		for _, op := range ops {
			rt.shard(op)
		}
	})
}

// BenchmarkJoiner measures the streaming join in its pull form
// (nfsanalyze, nfsworker) and its push form (nfsmond, repro.Generate*).
func BenchmarkJoiner(b *testing.B) {
	records := genRecords(b, 0.5)
	form := func(name string, join func([]*core.Record) core.JoinStats) {
		b.Run(name, func(b *testing.B) {
			perUnit(b, "rec", len(records), func() {
				if join(records).Matched == 0 {
					b.Fatal("no ops")
				}
			})
		})
	}
	form("streaming", pullJoin)
	form("push", pushJoin)
}

// BenchmarkPartialRoundTrip measures the state codec over every reducer
// kind on the CAMPUS generator stream: write serializes a quiesced
// two-shard Live (WritePartial, a worker's share of a distributed run),
// read parses the bytes and decodes them into fresh two-shard analyzers
// (ParsePartial plus the decode and re-shard that Resume and
// MergePartials run before any finish).
func BenchmarkPartialRoundTrip(b *testing.B) {
	ops, span := benchTrace(b)
	lv := quiesced(ops, everyKind(span)...)
	var buf bytes.Buffer
	write := func() {
		buf.Reset()
		if err := WritePartial(&buf, lv, "all", core.JoinStats{}, nil); err != nil {
			b.Fatal(err)
		}
	}
	write()
	data := append([]byte(nil), buf.Bytes()...)
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			write()
		}
		b.ReportMetric(float64(len(data)), "B/state")
	})
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := ParsePartial(data)
			if err != nil {
				b.Fatal(err)
			}
			analyzers := everyKind(span)
			for _, a := range analyzers {
				a.adapter().open(2)
			}
			if err := p.decodeInto(analyzers); err != nil {
				b.Fatal(err)
			}
		}
	})
}
