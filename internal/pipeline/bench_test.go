package pipeline

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/workload"
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
			rt.route(op)
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

// BenchmarkIngestTraceSet measures the multi-file front end: three
// time-sorted files (a CAMPUS generator stream dealt out round-robin,
// as per-array captures split one server's traffic) opened as one
// TraceSet, each decoded on its own read-ahead and k-way merged. The
// consumer recycles every record through the TraceSet the way the
// Joiner does, so the batched hand-back runs as it does in a run.
func BenchmarkIngestTraceSet(b *testing.B) {
	records := genRecords(b, 4)
	parts := make([][]*core.Record, 3)
	for i, r := range records {
		parts[i%3] = append(parts[i%3], r)
	}
	for _, f := range []struct {
		name   string
		binary bool
	}{{"text", false}, {"binary", true}} {
		files := make([][]byte, len(parts))
		size := 0
		for i, part := range parts {
			var buf bytes.Buffer
			w := core.NewFormatWriter(&buf, f.binary)
			for _, r := range part {
				if err := w.Write(r); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				b.Fatal(err)
			}
			files[i] = buf.Bytes()
			size += buf.Len()
		}
		b.Run(f.name, func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			perUnit(b, "rec", len(records), func() {
				inputs := make([]io.Reader, len(files))
				for i, data := range files {
					inputs[i] = bytes.NewReader(data)
				}
				ts, err := OpenTraceReaders(inputs)
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					r, err := ts.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					n++
					ts.Recycle(r)
				}
				ts.Close()
				if n != len(records) {
					b.Fatalf("read %d records, want %d", n, len(records))
				}
			})
		})
	}
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

// monitorAnalyzers is nfsmond's `-analyses all` set, in its
// registration order.
func monitorAnalyzers() []Analyzer {
	return []Analyzer{
		&SummaryAnalyzer{},
		&HierarchyAnalyzer{Warmup: 600},
		&RunsAnalyzer{Config: analysis.RunConfig{ReorderWindow: 0.01, IdleGap: 30, JumpBlocks: 10}},
		&BlockLifeAnalyzer{Phase: workload.Day, Margin: workload.Day},
		&ReorderSweepAnalyzer{WindowsMS: []float64{0, 1, 2, 5, 10, 20, 50}},
		&PeakHourAnalyzer{From: 9 * workload.Hour, To: 17 * workload.Hour},
		&MailboxAnalyzer{},
	}
}

// BenchmarkLiveScrape measures what a monitor scrape costs the
// process: a Live with nfsmond's analyzers is fed one day of EECS
// traffic from two clients, and after every twentieth of it a snapshot
// is forked and finished. The metric is the mean of Fork plus Finish
// over the twenty scrapes; feeding is not counted.
func BenchmarkLiveScrape(b *testing.B) {
	sink := &client.SliceSink{}
	workload.NewEECS(workload.DefaultEECSConfig(2, 1, 20011021), sink).Run()
	ops, _ := pullAll(b, sink.Records, 0)
	const scrapes = 20
	var spent time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lv := NewLive(Config{}, monitorAnalyzers()...)
		fed := 0
		for k := 1; k <= scrapes; k++ {
			cut := len(ops) * k / scrapes
			for _, op := range ops[fed:cut] {
				lv.Feed(op)
			}
			fed = cut
			t0 := time.Now()
			snap, err := lv.Fork()
			if err != nil {
				b.Fatal(err)
			}
			snap.Finish()
			spent += time.Since(t0)
		}
		lv.Abort()
	}
	b.ReportMetric(float64(spent.Microseconds())/1000/float64(b.N*scrapes), "ms/scrape")
}
