package repro

// The benchmark harness: one benchmark per paper table and figure (the
// regeneration cost over a fixed trace), the side experiments, and the
// ablations called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks share one small generated trace pair (build cost excluded
// from timings via b.ResetTimer; generation itself is measured by
// BenchmarkGenerateCampus / BenchmarkGenerateEECS).

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/anon"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/workload"
)

var (
	benchOnce   sync.Once
	benchCampus *Trace
	benchEECS   *Trace
)

func benchTraces(b *testing.B) (*Trace, *Trace) {
	b.Helper()
	benchOnce.Do(func() {
		s := SmallScale()
		s.Days = 2
		benchCampus = GenerateCampus(s)
		benchEECS = GenerateEECS(s)
	})
	return benchCampus, benchEECS
}

func benchExperiment(b *testing.B, fn func(*Trace, *Trace) string) {
	campus, eecs := benchTraces(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := fn(campus, eecs); len(out) == 0 {
			b.Fatal("empty experiment output")
		}
	}
}

func BenchmarkTable1(b *testing.B)  { benchExperiment(b, Table1) }
func BenchmarkTable2(b *testing.B)  { benchExperiment(b, Table2) }
func BenchmarkTable3(b *testing.B)  { benchExperiment(b, Table3) }
func BenchmarkTable4(b *testing.B)  { benchExperiment(b, Table4) }
func BenchmarkTable5(b *testing.B)  { benchExperiment(b, Table5) }
func BenchmarkFigure1(b *testing.B) { benchExperiment(b, Figure1) }
func BenchmarkFigure2(b *testing.B) { benchExperiment(b, Figure2) }
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, Figure3) }
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, Figure4) }
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, Figure5) }

func BenchmarkExpNfsiod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := ExpNfsiod(); len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkExpNames(b *testing.B) {
	campus, _ := benchTraces(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := ExpNames(campus); len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkExpReadahead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := ExpReadahead(); len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkExpLoss times the §4.1.4 loss-estimation report. The lossy
// and clean traces are generated once, outside the timed loop — the
// benchmark measures the analysis, not the workload generator.
func BenchmarkExpLoss(b *testing.B) {
	s := SmallScale()
	s.Days = 0.25
	lossy, port := GenerateCampusLossy(s, 120e3)
	clean := GenerateCampus(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := expLossReport(lossy, port, clean); len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkExpHierarchy(b *testing.B) {
	campus, _ := benchTraces(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := ExpHierarchy(campus); len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

// --- Trace generation cost ---

func BenchmarkGenerateCampus(b *testing.B) {
	s := SmallScale()
	s.Days = 0.25
	var ops int
	for i := 0; i < b.N; i++ {
		tr := GenerateCampus(s)
		ops = len(tr.Ops)
	}
	b.ReportMetric(float64(ops), "ops/trace")
}

func BenchmarkGenerateEECS(b *testing.B) {
	s := SmallScale()
	s.Days = 0.25
	var ops int
	for i := 0; i < b.N; i++ {
		tr := GenerateEECS(s)
		ops = len(tr.Ops)
	}
	b.ReportMetric(float64(ops), "ops/trace")
}

// --- Ablations (DESIGN.md) ---

// BenchmarkAblationWindow compares run detection across reorder window
// sizes; the reported metric is the random-read percentage, which the
// window exists to repair.
func BenchmarkAblationWindow(b *testing.B) {
	campus, _ := benchTraces(b)
	for _, winMS := range []float64{0, 5, 10, 50} {
		name := map[float64]string{0: "w0ms", 5: "w5ms", 10: "w10ms", 50: "w50ms"}[winMS]
		b.Run(name, func(b *testing.B) {
			var randomPct float64
			for i := 0; i < b.N; i++ {
				tab := analysis.Tabulate(addAll(analysis.NewRunDetector(analysis.RunConfig{ReorderWindow: winMS / 1000, IdleGap: 30, JumpBlocks: 10}), campus.Ops).Runs())
				randomPct = tab.Read[analysis.PatternRandom]
			}
			b.ReportMetric(randomPct, "%random-reads")
		})
	}
}

// BenchmarkAblationK compares the k=1 strict and k=10 jump-tolerant
// classifications.
func BenchmarkAblationK(b *testing.B) {
	campus, _ := benchTraces(b)
	for _, k := range []int64{1, 10} {
		name := map[int64]string{1: "k1", 10: "k10"}[k]
		b.Run(name, func(b *testing.B) {
			var randomPct float64
			for i := 0; i < b.N; i++ {
				tab := analysis.Tabulate(addAll(analysis.NewRunDetector(analysis.RunConfig{ReorderWindow: 0.010, IdleGap: 30, JumpBlocks: k}), campus.Ops).Runs())
				randomPct = tab.Write[analysis.PatternRandom]
			}
			b.ReportMetric(randomPct, "%random-writes")
		})
	}
}

// BenchmarkAblationBreak compares run-break idle gaps (5s vs 30s vs
// none), reporting the run count each rule produces.
func BenchmarkAblationBreak(b *testing.B) {
	campus, _ := benchTraces(b)
	for _, gap := range []float64{5, 30, 0} {
		name := map[float64]string{5: "gap5s", 30: "gap30s", 0: "eof-only"}[gap]
		b.Run(name, func(b *testing.B) {
			var runs int
			for i := 0; i < b.N; i++ {
				rs := addAll(analysis.NewRunDetector(analysis.RunConfig{ReorderWindow: 0.010, IdleGap: gap, JumpBlocks: 10}), campus.Ops).Runs()
				runs = len(rs)
			}
			b.ReportMetric(float64(runs), "runs")
		})
	}
}

// BenchmarkAblationAnon compares the paper's table-based anonymizer
// against a hash-style deterministic mapping (which the paper rejects
// for security, not speed — this quantifies the cost of doing it right).
func BenchmarkAblationAnon(b *testing.B) {
	names := make([]string, 2000)
	rng := rand.New(rand.NewSource(1))
	for i := range names {
		names[i] = randomName(rng)
	}
	b.Run("table-based", func(b *testing.B) {
		a := anon.New(anon.DefaultConfig(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Name(names[i%len(names)])
		}
	})
	b.Run("hash-based", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fnvName(names[i%len(names)])
		}
	})
}

func randomName(rng *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	n := 4 + rng.Intn(12)
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = letters[rng.Intn(len(letters))]
	}
	if rng.Intn(2) == 0 {
		return string(buf) + ".c"
	}
	return string(buf)
}

// fnvName is the rejected hash-based alternative.
func fnvName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// --- Pipeline benchmarks ---

// BenchmarkPipelineWorkers measures the full analysis reducer suite
// (summary, hourly, raw+processed runs, block lifetimes) over the
// CAMPUS generator workload at 1, 4, and NumCPU workers — the
// before/after comparison for the sharded engine. The reported metric
// is analysis throughput in operations per second; output is
// byte-identical at every worker count (see
// TestTablesByteIdenticalAcrossWorkers).
func BenchmarkPipelineWorkers(b *testing.B) {
	campus, _ := benchTraces(b)
	span := campus.Days * workload.Day
	newSet := func() []pipeline.Analyzer {
		return []pipeline.Analyzer{
			&pipeline.SummaryAnalyzer{Days: campus.Days},
			&pipeline.HourlyAnalyzer{Span: span},
			&pipeline.RunsAnalyzer{Config: analysis.RunConfig{
				ReorderWindow: campus.ReorderWindowMS / 1000, IdleGap: 30, JumpBlocks: 1}},
			&pipeline.RunsAnalyzer{Config: analysis.DefaultRunConfig(campus.ReorderWindowMS)},
			&pipeline.BlockLifeAnalyzer{Start: workload.Day + 9*workload.Hour,
				Phase: workload.Day, Margin: workload.Day},
		}
	}
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			cfg := pipeline.Config{Workers: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pipeline.RunSlice(cfg, campus.Ops, newSet()...)
			}
			b.StopTimer()
			b.ReportMetric(float64(len(campus.Ops))*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkRecordMarshal measures trace-format serialization.
func BenchmarkRecordMarshal(b *testing.B) {
	rec := &core.Record{
		Time: 1003680000.004742, Kind: core.KindCall,
		Client: 0x0a000005, Port: 801, Server: 0x0a000001, Proto: core.ProtoUDP,
		XID: 0xa2f3, Version: 3, Proc: core.MustProc("read"),
		FH: core.InternFH("0000000000000007"), Offset: 8192, Count: 8192, UID: 501, GID: 100,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(rec.Marshal()) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkRecordUnmarshal measures trace-format parsing.
func BenchmarkRecordUnmarshal(b *testing.B) {
	rec := &core.Record{
		Time: 1003680000.004742, Kind: core.KindCall,
		Client: 0x0a000005, Port: 801, Server: 0x0a000001, Proto: core.ProtoUDP,
		XID: 0xa2f3, Version: 3, Proc: core.MustProc("read"),
		FH: core.InternFH("0000000000000007"), Offset: 8192, Count: 8192, UID: 501, GID: 100,
	}
	line := rec.Marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.UnmarshalRecord(line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadAheadPolicies measures the §6.4 read-path simulation.
func BenchmarkReadAheadPolicies(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	var reqs []server.ReadRequest
	for f := uint64(1); f <= 10; f++ {
		start := len(reqs)
		for bl := int64(0); bl < 256; bl++ {
			reqs = append(reqs, server.ReadRequest{File: f, Block: bl, NBlocks: 1})
		}
		for i := start; i < len(reqs)-1; i++ {
			if rng.Float64() < 0.10 {
				reqs[i], reqs[i+1] = reqs[i+1], reqs[i]
			}
		}
	}
	b.Run("strict", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			server.RunReadPath(reqs, server.NewStrictSequential(8), 2048)
		}
	})
	b.Run("metric", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			server.RunReadPath(reqs, server.NewMetricReadAhead(), 2048)
		}
	})
}

// BenchmarkNfsiodPool measures dispatch cost.
func BenchmarkNfsiodPool(b *testing.B) {
	p := client.NewPool(4, 1)
	t := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t += 0.0001
		p.Dispatch(t)
	}
}

// finishTraces are the traces the finish benchmarks run over: CAMPUS at
// the benchmark's analyze_dist scale (100 users, half a day: ≈ 80 k
// accesses on ≈ 270 files, mailbox reads ≈ 85 µs apart) and EECS at
// analyze_binary's (4 clients, 1.5 days: many small files).
var (
	finishOnce   sync.Once
	finishCampus *Trace
	finishEECS   *Trace
)

func finishTraces(b *testing.B) (*Trace, *Trace) {
	b.Helper()
	finishOnce.Do(func() {
		finishCampus = GenerateCampus(Scale{CampusUsers: 100, Days: 0.5, Seed: 101})
		finishEECS = GenerateEECS(Scale{EECSClients: 4, Days: 1.5, Seed: 101})
	})
	return finishCampus, finishEECS
}

// perAccess reports a finish benchmark's cost per access: time and heap
// allocations, measured over the whole timed loop.
func perAccess(b *testing.B, accesses int, run func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(accesses)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/access")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/access")
}

// BenchmarkSortWindow measures the §4.2 reorder-window sort over every
// file of a trace: CAMPUS at 1, 10 and 50 ms, EECS at its 5 ms.
func BenchmarkSortWindow(b *testing.B) {
	campus, eecs := finishTraces(b)
	for _, c := range []struct {
		name string
		tr   *Trace
		wms  float64
	}{{"campus-1ms", campus, 1}, {"campus-10ms", campus, 10}, {"campus-50ms", campus, 50}, {"eecs-5ms", eecs, 5}} {
		b.Run(c.name, func(b *testing.B) {
			files := addAll(make(analysis.AccessMap), c.tr.Ops)
			total := 0
			for _, accs := range files {
				total += len(accs)
			}
			cp := make([]analysis.Access, 0, total)
			perAccess(b, total, func() {
				for _, accs := range files {
					cp = append(cp[:0], accs...)
					analysis.SortWindow(cp, c.wms/1000)
				}
			})
		})
	}
}

// BenchmarkRunsFinish measures RunDetector.Runs — sort, split and
// classify — over a whole access map under the trace's own window: the
// finish the coordinator runs after the last piece returns and nfsmond
// runs on every scrape.
func BenchmarkRunsFinish(b *testing.B) {
	campus, eecs := finishTraces(b)
	for _, tr := range []*Trace{campus, eecs} {
		b.Run(tr.Name, func(b *testing.B) {
			r := addAll(analysis.NewRunDetector(analysis.DefaultRunConfig(tr.ReorderWindowMS)), tr.Ops)
			accesses := 0
			for _, run := range r.Runs() {
				accesses += len(run.Accesses)
			}
			perAccess(b, accesses, func() { r.Runs() })
		})
	}
}

// BenchmarkReorderSweep measures the Figure 1 sweep at the seven windows
// an nfsmond scrape reports.
func BenchmarkReorderSweep(b *testing.B) {
	campus, _ := finishTraces(b)
	r := addAll(analysis.NewReorderSweeper([]float64{0, 1, 2, 5, 10, 20, 50}), campus.Ops)
	accesses := 0
	for _, accs := range addAll(make(analysis.AccessMap), campus.Ops) {
		accesses += len(accs)
	}
	perAccess(b, accesses, func() { r.Points() })
}

// BenchmarkHourly measures the Figure 4 bucketing pass.
func BenchmarkHourly(b *testing.B) {
	campus, _ := benchTraces(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addAll(analysis.NewHourly(campus.Days*workload.Day), campus.Ops)
	}
	b.SetBytes(int64(len(campus.Ops)))
}

func BenchmarkExpNVRAM(b *testing.B) {
	campus, eecs := benchTraces(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := ExpNVRAM(campus, eecs); len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkExpQuiet(b *testing.B) {
	campus, eecs := benchTraces(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := ExpQuiet(campus, eecs); len(out) == 0 {
			b.Fatal("empty")
		}
	}
}
